"""The paper's leading-form lemma for the map (f, g, h) of phi: its leading
forms are (-z*lf^2, z*lf, z), where lf is the leading form of phi, so the
nine 2x2 Jacobian minors of the leading forms have closed forms.  Both
sides are computed here for a nonconstant phi, for the tests to compare.
"""

from nagata import Poly, Z, build_nagata


def leading_minors(phi):
    """All nine 2x2 Jacobian minors of the leading forms of the map.

    Key "fg_yz" means fbar_y * gbar_z - fbar_z * gbar_y, and so on.
    """
    endo = build_nagata(phi).endo
    bars = {"f": endo.f.leading_form(), "g": endo.g.leading_form(), "h": endo.h.leading_form()}
    axes = {"xy": ("x", "y"), "yz": ("y", "z"), "xz": ("x", "z")}
    minors = {}
    for pair in ("fg", "gh", "fh"):
        p, q = bars[pair[0]], bars[pair[1]]
        for name, (u, v) in axes.items():
            minors[f"{pair}_{name}"] = p.partial(u) * q.partial(v) - p.partial(v) * q.partial(u)
    return minors


def leading_minor_closed_forms(phi):
    """Predicted minors from the leading forms (-z*lf^2, z*lf, z)."""
    lf = phi.leading_form()
    lf_x = lf.partial("x")
    lf_y = lf.partial("y")
    zero = Poly.zero(phi.vars)
    return {
        "fg_xy": zero,
        "fg_yz": -Z * lf ** 2 * lf_y,
        "fg_xz": -Z * lf ** 2 * lf_x,
        "gh_xy": zero,
        "gh_yz": Z * lf_y,
        "gh_xz": Z * lf_x,
        "fh_xy": zero,
        "fh_yz": -2 * Z * lf * lf_y,
        "fh_xz": -2 * Z * lf * lf_x,
    }
