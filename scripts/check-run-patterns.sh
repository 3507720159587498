#!/usr/bin/env bash
# Check that every `go test -run` pattern in the Makefile selects at least
# one test (run via `make check`). A pattern that matches nothing passes
# silently, so a gate whose test was renamed or deleted would go on passing
# without running it. Each pattern's top-level part — up to the first '/'
# outside brackets and parentheses — is listed with `go test -list` over the
# packages of its recipe line; '^$', which runs no test on purpose (the fuzz
# and benchmark recipes), is skipped.
#
# Usage: scripts/check-run-patterns.sh [MAKEFILE]
set -euo pipefail

cd "$(dirname "$0")/.."
makefile=${1:-Makefile}
GO=${GO:-go}

# top_level prints the part of a -run pattern that selects top-level tests.
top_level() {
    local p=$1 out='' depth=0 c i
    for ((i = 0; i < ${#p}; i++)); do
        c=${p:i:1}
        case $c in
        '(' | '[') depth=$((depth + 1)) ;;
        ')' | ']') depth=$((depth - 1)) ;;
        /) ((depth == 0)) && break ;;
        esac
        out+=$c
    done
    printf '%s\n' "$out"
}

fail=0
while IFS= read -r line; do
    rest=${line#*-run }
    if [[ $rest == \'* ]]; then
        rest=${rest#\'}
        pattern=${rest%%\'*}
        rest=${rest#*\'}
    else
        pattern=${rest%% *}
        rest=${rest#"$pattern"}
    fi
    [[ $pattern == '^$' ]] && continue
    # Package arguments are the words that start with '.': ., ./..., ./internal/x/.
    read -ra pkgs <<<"$(grep -oE '(^| )\.[^ ]*' <<<"$rest" | tr '\n' ' ')"
    top=$(top_level "$pattern")
    listed=$("$GO" test -list "$top" "${pkgs[@]}")
    if ! grep -qE '^(Test|Example|Fuzz)' <<<"$listed"; then
        echo "check-run-patterns: -run '$pattern' selects no test in ${pkgs[*]}" >&2
        fail=1
    fi
done < <(grep -E '^[[:space:]]+\$\(GO\) test .*-run ' "$makefile" | sed 's/\$\$/$/g')

if [[ $fail -ne 0 ]]; then
    exit 1
fi
echo "check-run-patterns: every -run pattern selects a test"
