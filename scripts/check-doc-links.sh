#!/usr/bin/env bash
# The documentation link gate, runnable locally: every intra-repo
# markdown link and every source-file path named in README.md and
# docs/*.md must point at a file that exists, every `paper/<name>`
# scenario they name must be registered under src/qsc/bench/, and none
# may name the retired build/bench/ binaries. The CI `format` job runs
# exactly this script, so docs cannot drift silently when files move.
#
#   scripts/check-doc-links.sh
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md docs/*.md)
failures=0

fail() {
  echo "check-doc-links: $1: broken reference: $2" >&2
  failures=$((failures + 1))
}

for doc in "${docs[@]}"; do
  dir=$(dirname "$doc")

  # Markdown links [text](target): keep relative intra-repo targets,
  # skip external schemes and pure #anchors, strip any #fragment.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    path="${target%%#*}"
    [[ -n "$path" ]] || continue
    # Links resolve relative to the containing file.
    if [[ ! -e "$dir/$path" && ! -e "$path" ]]; then
      fail "$doc" "link ($target)"
    fi
  done < <(grep -oE '\]\(([^)]+)\)' "$doc" | sed -E 's/^\]\((.*)\)$/\1/')

  # Source-file mentions: any token ending in .h/.cc/.cpp (backticked
  # paths, bare mentions, "qsc/..." shorthand for "src/qsc/...").
  while IFS= read -r mention; do
    # Trim wrapping punctuation the prose attaches.
    path="${mention#\`}"
    path="${path%\`}"
    case "$path" in
      */*) ;;
      *) continue ;;  # bare filenames like graph.h are headline words
    esac
    if [[ -e "$path" || -e "src/$path" || -e "src/qsc/$path" ]]; then
      continue
    fi
    fail "$doc" "$path"
  done < <(grep -oE '[A-Za-z0-9_./-]+\.(h|cc|cpp)\b' "$doc" | sort -u)

  # Paper figures and tables are qsc_bench scenarios now; the stand-alone
  # binaries under build/bench/ are gone (test binaries like
  # bench_compare_test and the .bench_build/ directory are not them).
  while IFS= read -r mention; do
    fail "$doc" "retired benchmark binary ($mention)"
  done < <(grep -oE 'build/bench/|\bbench_[A-Za-z0-9_]+' "$doc" |
           grep -vE '_test$|^bench_build$' | sort -u)

  # Every paper/<name> scenario named must be registered by that exact
  # string literal; a paper/<prefix>* glob must match at least one.
  while IFS= read -r scenario; do
    case "$scenario" in
      *'*') literal="\"${scenario%\*}" ;;
      *) literal="\"$scenario\"" ;;
    esac
    if ! grep -rqF "$literal" src/qsc/bench/; then
      fail "$doc" "unregistered scenario $scenario"
    fi
  done < <(grep -oE '\bpaper/[A-Za-z0-9_-]+\*?' "$doc" | sort -u)
done

if [[ "$failures" -gt 0 ]]; then
  echo "check-doc-links: $failures broken reference(s)" >&2
  exit 1
fi
echo "check-doc-links: all markdown links, source paths and scenarios resolve"
