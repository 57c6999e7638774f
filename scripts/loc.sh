#!/usr/bin/env bash
# Line counts of the workspace's Rust code: non-blank, non-comment lines.
#
#   scripts/loc.sh
#
# One row per crate under crates/ (the vendored crates/compat stubs are
# left out): `src` is the non-test code under src/, `cfg(test)` the lines
# of src/ that belong to a `#[cfg(test)]` item (the attribute line through
# the item's closing brace or semicolon), `tests` the crate's own tests/
# directory. The `nine` row sums the crates outside crates/serve; `all`
# sums every row. The root `src/`, `tests/` and `examples/` follow as
# totals.
#
# A line counts as a comment when it starts with `//` (doc comments too)
# or lies inside a `/* ... */` block that starts a line. Braces inside
# string literals are not told apart from code, so a `#[cfg(test)]` item
# with an unbalanced brace in a string would be measured wrongly; none
# exists today.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo"

# Prints "<non-test> <cfg(test)>" for the files given on stdin.
count() {
    local files
    files=$(cat)
    if [ -z "$files" ]; then
        echo "0 0"
        return
    fi
    # shellcheck disable=SC2086
    awk '
        FNR == 1 { in_block = 0; in_test = 0 }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (in_block) {
                if (index(line, "*/")) in_block = 0
                next
            }
            if (line == "") next
            if (substr(line, 1, 2) == "//") next
            if (substr(line, 1, 2) == "/*") {
                if (!index(line, "*/")) in_block = 1
                next
            }
            if (!in_test && line ~ /^#\[cfg\(test\)\]/) {
                in_test = 1; depth = 0; opened = 0
                test++
                next
            }
            if (in_test) {
                test++
                code = line
                sub(/\/\/.*$/, "", code)
                n_open = gsub(/\{/, "{", code)
                n_close = gsub(/\}/, "}", code)
                depth += n_open - n_close
                if (n_open > 0) opened = 1
                if ((opened && depth <= 0) || (!opened && index(code, ";"))) in_test = 0
                next
            }
            src++
        }
        END { printf "%d %d\n", src, test }
    ' $files
}

rust_files() {
    [ -d "$1" ] || return 0
    find "$1" -name '*.rs' | sort
}

printf '%-10s %8s %9s %8s\n' crate src 'cfg(test)' tests
nine_src=0 nine_test=0 nine_it=0 all_src=0 all_test=0 all_it=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ "$crate" = compat ] && continue
    read -r src test < <(rust_files "$dir/src" | count)
    read -r it _ < <(rust_files "$dir/tests" | count)
    printf '%-10s %8d %9d %8d\n' "$crate" "$src" "$test" "$it"
    all_src=$((all_src + src)) all_test=$((all_test + test)) all_it=$((all_it + it))
    if [ "$crate" != serve ]; then
        nine_src=$((nine_src + src)) nine_test=$((nine_test + test)) nine_it=$((nine_it + it))
    fi
done
printf '%-10s %8d %9d %8d\n' nine "$nine_src" "$nine_test" "$nine_it"
printf '%-10s %8d %9d %8d\n' all "$all_src" "$all_test" "$all_it"
echo
for dir in src tests examples; do
    read -r src test < <(rust_files "$dir" | count)
    printf '%-10s %8d %9d\n' "$dir/" "$src" "$test"
done
