"""Set-up of one workload, timed from a fresh interpreter.

    python3 perfbench/setup_probe.py <workload>

Imports skewcyclic from the checkout's `src/`, builds every ring context the
workload's inputs use (field tables, factorization, idempotents) and
enumerates each context's automorphism group, as `skewcyclic automorphisms`
does.  Prints one JSON line: the seconds that took, scaled to the nominal
machine speed by the reference kernel timed between its steps (see
`calib.py`), the unscaled seconds, and any mismatch between the benchmark's
context table and what the program built.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def build_contexts(names):
    """name -> (RingContext, automorphism list), through the public API."""
    from contexts import CONTEXTS
    from skewcyclic import RingContext, enumerate_automorphisms
    from skewcyclic.literals import parse_field

    built = {}
    for name in names:
        spec = CONTEXTS[name]
        ctx = RingContext(parse_field(spec["field"]), spec["n"])
        built[name] = (ctx, enumerate_automorphisms(ctx))
    return built


def main(workload):
    """Time the import and then each context in its own segment, with the
    reference kernel timed between segments; each segment is scaled by the
    mean of the kernel times on either side of it."""
    import calib

    kernel = [calib.warm(5)]
    t0 = time.perf_counter()
    import skewcyclic  # noqa: F401

    from gen import CONTEXTS_OF

    segments = [time.perf_counter() - t0]
    kernel.append(calib.warm(5))
    names = CONTEXTS_OF[workload]
    built = {}
    for name in names:
        t0 = time.perf_counter()
        built.update(build_contexts([name]))
        segments.append(time.perf_counter() - t0)
        kernel.append(calib.warm(5))
    from contexts import check_against_program

    scaled = sum(
        t * calib.NOMINAL_S / ((kernel[i] + kernel[i + 1]) / 2) for i, t in enumerate(segments)
    )
    print(json.dumps({
        "setup_s": scaled,
        "wall_s": sum(segments),
        "problems": check_against_program(names, built),
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.exit(main(sys.argv[1]))
