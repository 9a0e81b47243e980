#!/bin/sh
# Print the library's test-only surface: every value a lib/**/*.mli
# declares (at top level, or in a [module X : sig] block) that no .ml
# file under lib/, bin/, bench/ or examples/ names qualified
# (Module.value), its own module's .ml aside.  One "Module.value" a
# line, sorted.  Test code and perfbench/ do not count as callers.
#
#   sh scripts/lib_surface.sh                 # the census
#   sh scripts/lib_surface.sh | diff - <(cut -d' ' -f1 doc/lib_surface.txt)
#
# It is a grep: a caller hidden behind an [open] or a module alias is
# missed, a mention in [{!Module.value}] or [[Module.value]] doc text
# is not a call, and two modules of one name (Engine, Protocol) share
# their callers.  doc/lib_surface.txt lists every value this prints
# with the reason it stays; CI diffs the two.
set -eu
cd "$(dirname "$0")/.."

{
  # "ref FILE Module.value" for every qualified name in a caller file.
  grep -rHoE '(\{!|\[)?[A-Z][A-Za-z0-9_]*\.[a-z_][A-Za-z0-9_]*' \
    lib bin bench examples --include='*.ml' \
    | grep -vE ':(\{!|\[)' | sed 's/^/ref /; s/:/ /'
  # "decl OWN.ml Module.value" for every declared value.
  for mli in $(find lib -name '*.mli' | sort); do
    awk -v own="${mli%.mli}.ml" '
      FNR == 1 {
        n = split(FILENAME, p, "/"); m = p[n]; sub(/\.mli$/, "", m)
        m = toupper(substr(m, 1, 1)) substr(m, 2); sub_ = ""
      }
      /^module [A-Z][A-Za-z0-9_]* : sig/ { sub_ = $2; next }
      /^end/ { sub_ = ""; next }
      /^val [a-z_]/ || (sub_ != "" && /^  val [a-z_]/) {
        v = $2; sub(/:.*/, "", v)
        print "decl", own, (sub_ != "" ? sub_ "." v " " m "." sub_ : m) "." v
      }' "$mli"
  done
} | awk '
  $1 == "ref" { callers[$3] = callers[$3] " " $2 " "; next }
  {
    c = callers[$3]; gsub(" " $2 " ", "", c)
    if (c !~ /[^ ]/) print (NF > 3 ? $4 : $3)
  }' | sort -u
