#!/bin/sh
# Dead-link check for the repo's Markdown docs.
#
# Usage: ./scripts/doc_link_check.sh
#
# Scans README.md and docs/*.md for relative Markdown links -- the
# [text](path) form, excluding http(s): and mailto: -- and fails if any
# target does not exist relative to the linking file.  Anchors (#...) are
# stripped before the existence check; anchor validity is not verified.
# Registered in ctest as doc_link_check, so a doc rename or move cannot
# silently strand references.
set -e

cd "$(dirname "$0")/.."

fail=0
for doc in README.md docs/*.md; do
  [ -f "$doc" ] || continue
  dir=$(dirname "$doc")
  # One link per line: grab every (...) that follows a ](, then strip the
  # wrapping, any anchor, and any "title" suffix.
  links=$(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//' || true)
  for link in $links; do
    case "$link" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target=${link%%#*}
    [ -n "$target" ] || continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "[doc-link] $doc: dead link -> $link" >&2
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "[doc-link] FAIL: dead relative links found" >&2
  exit 1
fi
echo "[doc-link] OK (all relative links in README.md and docs/ resolve)" >&2
