"""Empirical look at the measure-zero set that never reaches a minimum.

The saddle-augmented field for two attractors at x1 = -1 and x1 = 1 has a
saddle at the origin whose stable manifold is the x1 = 0 line.  Starts on
that line flow into the saddle and time out; starts any fixed distance off
it converge to one of the attractors.  The script integrates a sweep of
starts straddling the separatrix and prints where each one ends up.
"""

import argparse

import numpy as np

from morseforge.coord_change import PointSet
from morseforge.synth import build_saddle_field
from morseforge.verify import (
    STATUS_CONVERGED,
    STATUS_TIMEOUT,
    BoxSpec,
    FlowConfig,
    integrate_batch,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--offsets", type=int, default=9,
                    help="number of starting offsets from the separatrix")
    ap.add_argument("--dt", type=float, default=1e-2)
    ap.add_argument("--t-max", type=float, default=200.0)
    args = ap.parse_args(argv)

    sf = build_saddle_field(PointSet(2, [[-1, 0], [1, 0]]))
    box = BoxSpec(lower=(-2.0, -1.0), upper=(2.0, 1.0))
    targets = [(-1.0, 0.0), (1.0, 0.0)]

    # offsets 0, +-1e-1, +-1e-2, ... around the x1 = 0 stable manifold
    half = args.offsets // 2
    offsets = [0.0]
    for e in range(1, half + 1):
        offsets.extend([10.0 ** -e, -(10.0 ** -e)])
    starts = np.array([[off, 0.5] for off in sorted(offsets)])

    res = integrate_batch(
        sf.field, starts, box, targets,
        FlowConfig(dt=args.dt, t_max=args.t_max),
    )
    print(f"{'start x1':>12}  {'outcome':<18} {'end':>22}")
    for trace in res.traces():
        end = f"({trace['end'][0]:+.6f}, {trace['end'][1]:+.6f})"
        where = trace["classified"]
        if trace["converged_index"] is not None:
            where = f"minimum at x1={targets[trace['converged_index']][0]:+.0f}"
        print(f"{trace['start'][0]:>12.1e}  {where:<18} {end:>22}")

    converged = int((res.status == STATUS_CONVERGED).sum())
    timed_out = res.status == STATUS_TIMEOUT
    on_line = starts[:, 0] == 0.0
    print(f"\n{converged}/{len(starts)} starts converged; "
          f"{int((timed_out & on_line).sum())} (the separatrix itself) timed out; "
          f"{int((timed_out & ~on_line).sum())} off the separatrix timed out.")


if __name__ == "__main__":
    main()
