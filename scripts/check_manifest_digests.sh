#!/bin/sh
# Check that each campaign directory's manifest.json lists, in index
# order, the MD5 of every cells/cell_*.json on disk.
#
#   sh scripts/check_manifest_digests.sh DIR [DIR ...]
#
# The campaign writes the manifest from the digests it kept while
# placing the checkpoints, without reading cells/ again; this compares
# those digests with the files themselves. Checkpoint names are
# zero-padded, so the glob lists them in index order.
set -eu

for dir in "$@"; do
  listed=$(sed -n 's/^ *"digest": "\([0-9a-f]*\)"$/\1/p' "$dir/manifest.json")
  on_disk=$(md5sum "$dir"/cells/cell_*.json | cut -d ' ' -f 1)
  if [ "$listed" != "$on_disk" ]; then
    echo "check-manifest-digests: $dir/manifest.json does not list the MD5 of each checkpoint" >&2
    exit 1
  fi
done
