# Kept only because the frozen benchmark imports it:
# benchmarks/e2e/runner.py does `from repro.engine import shm` and
# checks `not shm.live_segment_names()` at the end of every run.  The
# engine exports no shared memory (DESIGN.md section 5, "no intra-query
# parallelism"); delete this file with that check (ROADMAP item 3(c)).
def live_segment_names() -> tuple:
    return ()
