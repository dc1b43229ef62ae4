#!/usr/bin/env bash
# AddressSanitizer (+UBSan) sweep: the same harness as run_tsan_tests.sh
# with FUME_SANITIZE=address pinned. CoW clones share refcounted nodes
# across forests and served snapshots, and the fused what-if walk reads a
# snapshot's nodes while the writer replaces its own, so this sweep is the
# use-after-free tripwire for the node graph. Usage:
#
#   scripts/run_asan_tests.sh            # ASan+UBSan
#
# Extra args are forwarded to ctest.
set -euo pipefail

FUME_SANITIZE=address exec "$(dirname "$0")/run_tsan_tests.sh" "$@"
