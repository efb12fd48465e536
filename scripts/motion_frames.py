"""Render block-on-ramp motion traces to JSONL frame files.

Simulates the constant-speed slide on one or both planar branches, writes a
frame stream per branch, and prints where the contact normal changes side on
the lower branch (before that point the block rides on top of the sheet,
after it the sheet is overhead).

Usage:
    python3 scripts/motion_frames.py --out out/frames --t-span 0 2 --fps 60
"""

import argparse
from pathlib import Path

import numpy as np

from rampforge import Branch, apex_param, make_ramp, simulate, spec_from_mu
from rampforge.exporters import trace_summary, write_frames_jsonl


def normal_flip_time(trace) -> float | None:
    """First frame time where the contact normal changes side."""
    normals = trace.frames["normal_force"]
    # ignore frames with vanishing normal force (the start has lambda = 0)
    loaded = np.linalg.norm(normals, axis=-1) > 1e-9
    times = trace.frames["t"][loaded]
    up = normals[loaded, 1] > 0.0
    flips = np.nonzero(up[1:] != up[:-1])[0]
    if flips.size == 0:
        return None
    return float(times[flips[0] + 1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mu", type=float, default=0.5)
    parser.add_argument("--v", type=float, default=5.0)
    parser.add_argument("--g", type=float, default=9.81)
    parser.add_argument("--mass", type=float, default=1.0)
    parser.add_argument("--branch", choices=["lower", "upper", "both"],
                        default="both")
    parser.add_argument("--t-span", type=float, nargs=2, default=[0.0, 2.0])
    parser.add_argument("--fps", type=float, default=60.0)
    parser.add_argument("--out", type=Path, default=Path("out/frames"))
    args = parser.parse_args()

    spec = spec_from_mu(args.mu, g=args.g, v=args.v, m=args.mass)
    branches = list(Branch) if args.branch == "both" else [Branch(args.branch)]
    args.out.mkdir(parents=True, exist_ok=True)

    s0 = apex_param(spec)
    print(f"mu={spec.mu}  v={spec.v}  a={spec.a:.6f}  "
          f"apex at s0={s0:.6f} m (t={s0 / spec.v:.6f} s)")
    for branch in branches:
        trace = simulate(spec, make_ramp(spec, branch), tuple(args.t_span),
                         fps=args.fps)
        path = args.out / f"{branch.value}.jsonl"
        write_frames_jsonl(path, trace)
        summary = trace_summary(trace)
        residual = float(np.linalg.norm(trace.frames["residual"], axis=-1).max())
        line = (f"{branch.value:5s}  frames={summary['frames']:4d}  "
                f"max|residual|={residual:.3e} N")
        flip = normal_flip_time(trace)
        if flip is not None:
            line += f"  normal flips sign at t={flip:.4f} s"
        print(line)
        print(f"       -> {path}")


if __name__ == "__main__":
    main()
