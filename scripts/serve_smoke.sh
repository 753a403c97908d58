#!/bin/sh
# End-to-end drill for the campaign service (cobra serve / cobra client):
#
#   1. run the smoke grid through the batch `cobra sweep` path (reference);
#   2. start the daemon with a shared result cache, submit the same grid,
#      kill -9 the daemon once at least 3 cells have landed;
#   3. restart the daemon, resubmit with --resume, and require the
#      manifest and every cell checkpoint to be byte-identical to the
#      batch reference, and each manifest digest to be the MD5 of its
#      checkpoint on disk;
#   4. submit the same work to a third directory and require it to be
#      served 100% from the content-addressed cache (0 ran), byte-identical
#      to the batch reference, with every cell checkpoint a hard link to
#      its cache record (no file created per hit), and its manifest
#      digests checked against the files as in step 3;
#   5. require that no temp name (*.tmp.*) is left in either daemon
#      campaign directory or in the cache, apart from a write the
#      SIGKILL of step 2 cut short (its name carries that daemon's pid);
#   6. graceful shutdown.
#
# Honors COBRA_DOMAINS like every other drill (the daemon pool defaults
# to it), so CI runs this at pool widths 1 and 2.
set -eu

BIN=_build/default/bin/main.exe
# Wider than the sweep-smoke grid (18 cells) so the SIGKILL below has a
# real campaign to land in the middle of.
GRID='name=smoke;graphs=cycle:12,complete:8,cycle:16,complete:10,cycle:20,complete:12;kernels=cobra,bips,sis;trials=3'
N_CELLS=18
SOCK=_results/serve-smoke.sock
CACHE=_results/serve-cache

rm -rf _results/serve-a _results/serve-b _results/serve-c "$CACHE" "$SOCK"
dune build bin/main.exe

DAEMON=
cleanup() {
  [ -n "$DAEMON" ] && kill "$DAEMON" 2>/dev/null || true
}
trap cleanup EXIT

# The socket file exists from bind on, before the daemon listens, so a
# submit sent as soon as it appears can be refused. Wait until the
# daemon answers a stats request instead.
start_daemon() {
  "$BIN" serve --socket "$SOCK" --cache "$CACHE" &
  DAEMON=$!
  i=0
  until "$BIN" client stats --socket "$SOCK" > /dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "serve-smoke: daemon never answered a stats request" >&2
      exit 1
    fi
    sleep 0.1
  done
}

# 1. Batch reference (no daemon, no cache).
"$BIN" sweep --grid "$GRID" --out _results/serve-a --seed 5

# 2. Daemon run, killed without warning mid-campaign.
start_daemon
"$BIN" client submit --socket "$SOCK" --grid "$GRID" --out _results/serve-b --seed 5
i=0
while :; do
  n=$(grep -c '"event":"cell"' _results/serve-b/events.jsonl 2>/dev/null || true)
  [ "${n:-0}" -ge 3 ] && break
  i=$((i + 1))
  if [ "$i" -gt 2000 ]; then
    echo "serve-smoke: never saw 3 cell events" >&2
    exit 1
  fi
  sleep 0.01
done
kill -9 "$DAEMON"
wait "$DAEMON" 2>/dev/null || true
KILLED=$DAEMON
DAEMON=
rm -f "$SOCK"

# 3. Restart, resume, and require byte-identity with the batch path.
start_daemon
"$BIN" client submit --socket "$SOCK" --grid "$GRID" --out _results/serve-b \
  --seed 5 --resume --watch
cmp _results/serve-a/manifest.json _results/serve-b/manifest.json
for f in _results/serve-a/cells/*.json; do
  cmp "$f" "_results/serve-b/cells/$(basename "$f")"
done
sh scripts/check_manifest_digests.sh _results/serve-a _results/serve-b

# 4. Identical work to a fresh directory: served entirely from the cache.
out=$("$BIN" client submit --socket "$SOCK" --grid "$GRID" \
  --out _results/serve-c --seed 5 --watch)
echo "$out"
echo "$out" | grep -q "(0 ran, $N_CELLS cached" || {
  echo "serve-smoke: resubmission was not 100% cache hits" >&2
  exit 1
}
cmp _results/serve-a/manifest.json _results/serve-c/manifest.json
for f in _results/serve-a/cells/*.json; do
  cmp "$f" "_results/serve-c/cells/$(basename "$f")"
done
unlinked=$(find _results/serve-c/cells -name 'cell_*.json' -links 1)
if [ -n "$unlinked" ]; then
  echo "serve-smoke: cached checkpoints written as files, not linked to the cache:" >&2
  echo "$unlinked" >&2
  exit 1
fi
sh scripts/check_manifest_digests.sh _results/serve-c

# 5. Every write and link of the restarted daemon has published its
# file under its own name. A temp file is named PATH.tmp.PID.N, so one
# the killed daemon was still writing is told apart by its pid.
leftover=$(find _results/serve-b _results/serve-c "$CACHE" -name '*.tmp.*' \
  ! -name "*.tmp.$KILLED.*")
if [ -n "$leftover" ]; then
  echo "serve-smoke: temp names left behind:" >&2
  echo "$leftover" >&2
  exit 1
fi

# 6. Graceful shutdown.
"$BIN" client shutdown --socket "$SOCK"
wait "$DAEMON"
DAEMON=

echo "serve-smoke: kill -9 resumed byte-identical; resubmission 100% cached, every checkpoint linked, no temp name left"
