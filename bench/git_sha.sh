# Sourced by the bench/run_*.sh scripts from the repo root: sets $sha to
# the commit an artifact is measured at, with -dirty appended when the
# working tree differs from it ("unknown" outside a git checkout).
sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
if [[ $sha != unknown ]] && ! git diff --quiet HEAD; then sha=$sha-dirty; fi
