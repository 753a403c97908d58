#!/bin/sh
# Checks the OCaml flags of the default build (see dune-workspace). Every
# library module must compile without -opaque, so that the [@inline]
# helpers of Dstruct, Prng and Graph.View inline into the kernels' step
# loops, and with the dev profile's warning-error set and strict flags,
# so that no lint rule is lost. Neither failure would show up as a build
# or test failure. Prints what is wrong and exits 1 if either check fails.
#
#   sh scripts/check_build_flags.sh      (from the repository root)
set -eu

warnings='@1..3@5..28@30..39@43@46..47@49..57@61..62-40'

# lib/<lib>/<m>.ml compiles to _build/default/lib/<lib>/.<lib>.objs/native/<lib>__<M>.cmx.
targets=$(for f in lib/*/*.ml; do
  dir=${f%/*}
  lib=${dir#lib/}
  m=$(basename "$f" .ml | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  echo "_build/default/$dir/.$lib.objs/native/${lib}__$m.cmx"
done)
n=$(echo "$targets" | wc -l)
# shellcheck disable=SC2086 # one target per word
rules=$(dune rules $targets)

# Lines of the printed rules that are exactly the argument [$1].
count() {
  printf '%s\n' "$rules" | grep -cx " *$(printf '%s' "$1" | sed 's/[.]/\\./g')" || true
}

status=0
if printf '%s\n' "$rules" | grep -q -- '-opaque'; then
  echo "check_build_flags: a library module is compiled with -opaque" >&2
  status=1
fi
for flag in "$warnings" -strict-sequence -strict-formats -short-paths -keep-locs; do
  got=$(count "$flag")
  if [ "$got" -ne "$n" ]; then
    echo "check_build_flags: $((n - got)) of $n library modules compile without $flag" >&2
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "check_build_flags: $n library modules, no -opaque, warnings are errors"
fi
exit "$status"
