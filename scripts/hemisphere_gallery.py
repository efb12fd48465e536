"""Build a gallery of curved ramps from hemisphere direction fields.

For each field this integrates the space curve, extrudes the ruled sheet,
verifies the force balance along it, and writes an OBJ mesh plus a sampled
curve CSV.  Open the OBJ files in any mesh viewer to compare the shapes.

Usage:
    python3 scripts/hemisphere_gallery.py --out out/gallery --smax 8
"""

import argparse
import math
from pathlib import Path

from rampforge import (build_surface, builtin_field, integrate_ramp3d,
                       spec_from_mu, verify_3d)
from rampforge.exporters import write_curve3d_csv, write_obj


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mu", type=float, default=0.5)
    parser.add_argument("--v", type=float, default=5.0)
    parser.add_argument("--g", type=float, default=9.81)
    parser.add_argument("--mass", type=float, default=1.0)
    parser.add_argument("--smax", type=float, default=None,
                        help="arc length to integrate (default 5/a)")
    parser.add_argument("--width", type=float, default=1.0,
                        help="sheet width in metres")
    parser.add_argument("--fields", nargs="+",
                        default=["upslope", "horizontal", "blend:0.5"])
    parser.add_argument("--out", type=Path, default=Path("out/gallery"))
    args = parser.parse_args()

    spec = spec_from_mu(args.mu, g=args.g, v=args.v, m=args.mass)
    smax = args.smax if args.smax is not None else 5.0 / spec.a
    args.out.mkdir(parents=True, exist_ok=True)

    # the pure upslope field reproduces the planar shape; start the others
    # slightly below the equator so the spiral has room to wind
    start = [1.0, 0.0, 0.0]
    tilted = [math.cos(0.3), 0.0, -math.sin(0.3)]
    for name in args.fields:
        field = builtin_field(name)
        y0 = start if name == "upslope" else tilted
        curve = integrate_ramp3d(spec, field, y0, smax)
        report = verify_3d(spec, curve)
        surface = build_surface(curve, r_extent=(-args.width / 2, args.width / 2))
        stem = name.replace(":", "_")
        write_obj(args.out / f"{stem}.obj", surface)
        write_curve3d_csv(args.out / f"{stem}.csv", curve, spec)
        drop = float(curve.alpha[0, 2] - curve.alpha[-1, 2])
        print(f"{name:12s} {report.verdict.value:6s}  "
              f"max|residual|={report.max_residual:.3e} N  "
              f"drop={drop:.3f} m over s={curve.s_end:.3f} m  "
              f"-> {args.out / (stem + '.obj')}")


if __name__ == "__main__":
    main()
