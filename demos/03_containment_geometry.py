"""Closed-form landmarks that pin down where extrema are allowed to live.

Three nested statements: all maxima of the full-window weighted square sit
inside (-delta, delta); all extrema sit inside the band (eta_minus,
eta_plus); and, reading outward from the center x0, maxima heights fall
then rise.  Each landmark is a closed form in (k, alpha, beta), so the scan
results can be checked against them with plain comparisons.
"""

from jacobimax import Params, Window, geometry, scan_extrema, structure_checks


def main():
    print("=" * 64)
    print("Containment landmarks vs scanned extrema")
    print("=" * 64)

    for k, a, b in [(6, 1.0, 1.0), (20, 2.0, 2.0), (15, 5.0, 1.0), (51, 20.0, 0.6036)]:
        p = Params(k, a, b)
        g = geometry(p)
        recs = scan_extrema(p, Window.full())
        rep = structure_checks(recs, g)
        print(f"\nk={k}, alpha={a}, beta={b}")
        if g.delta is not None:
            print(f"  radius delta     = {g.delta:.12f}  maxima inside: {rep.delta_containment.holds}"
                  f"  (margin {rep.delta_containment.margin:.3e})")
        print(f"  band (eta-, eta+) = ({g.eta_minus:.12f}, {g.eta_plus:.12f})"
              f"  extrema inside: {rep.eta_containment.holds}  (margin {rep.eta_containment.margin:.3e})")
        if g.x0 is not None:
            print(f"  center x0        = {g.x0:.12f}  heights fall then rise: {rep.unimodal_about_x0.holds}"
                  f"  split {rep.x0_split}")


if __name__ == "__main__":
    main()
