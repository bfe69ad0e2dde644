#!/usr/bin/env python3
"""Walk through the package's headline computations and print each result.

Covers the classical Nagata automorphism (its inverse and the group law
compose(N(a), N(b)) = N(a + b)), two maps that fail to be
automorphisms (with an explicit point collision), the wild family
(x*z + y^2)^n, a mixed example whose weighted leading form differs from
its plain leading form, the per-degree solution-space check against the
exact kernel oracle, and a Lojasiewicz deformation table.

Run:  python scripts/worked_examples.py
"""

from nagata import (
    Poly,
    PolyEndo,
    RING3,
    T1,
    T2,
    X,
    Y,
    Z,
    build_nagata,
    classify,
    compose,
    decompose,
    deformation_compare,
    expand_bivariate,
    inverse_nagata,
    jacobian_report,
    kernel_oracle,
    loj_exponent,
    milnor_certificate,
    pde_residual,
    verify_basis_against_oracle,
)

PHI = X * Z + Y ** 2


def section(title):
    print()
    print(title)
    print("-" * len(title))


def image(endo, *point):
    """The image of a point, as the texts of the map's constant components
    after substituting the point's coordinates."""
    return tuple(map(str, compose(endo, PolyEndo(*(Poly.constant(RING3, c) for c in point)))))


def main():
    section("Classical Nagata automorphism (phi = x*z + y^2)")
    nag = build_nagata(PHI)
    print("f =", nag.endo.f)
    print("g =", nag.endo.g)
    print("h =", nag.endo.h)
    print("jacobian determinant =", jacobian_report(PHI).determinant)
    print("residual =", pde_residual(PHI))
    p = decompose(PHI)
    print("representative p =", p)
    print("classification =", classify(PHI).verdict.value)
    inverse = inverse_nagata(p)
    assert compose(nag.endo, inverse) == PolyEndo(X, Y, Z)
    print("inverse verified by composition; inverse f' =", inverse.f)
    assert compose(nag.endo, build_nagata(Z).endo) == build_nagata(PHI + Z).endo
    print("group law verified: compose(N(t1), N(t2)) = N(t1 + t2), the map of phi =", PHI + Z)
    print("lojasiewicz exponent =", loj_exponent(p).exponent)
    cert = milnor_certificate(PHI)
    print("ideal certificate: x = f + (2*phi)*g + (-phi^2)*h, with 2*phi =",
          cert.x_combination[1])

    section("Maps that are not automorphisms")
    for phi in (X, Y):
        print(f"phi = {phi}: residual = {pde_residual(phi)}, "
              f"verdict = {classify(phi).verdict.value}")
    endo = build_nagata(X).endo
    print("phi = x sends (0,0,1) ->", image(endo, 0, 0, 1),
          "and (-1,1,1) ->", image(endo, -1, 1, 1))

    section("Wild family phi = (x*z + y^2)^n")
    for n in range(1, 4):
        verdict = classify(expand_bivariate(T1 ** n))
        print(f"n = {n}: {verdict.verdict.value}  "
              f"(d/dt1 of leading form = {verdict.leading_form_t1_derivative})")

    section("Weighted versus plain leading forms")
    p = T1 ** 2 - T2 ** 3 + T1 * T2 ** 2
    phi = expand_bivariate(p)
    p_v = p.weighted_leading_form((2, 1))
    p_bar = p.weighted_leading_form((1, 1))
    print("p =", p)
    print("d_v(p) =", p.weighted_degree((2, 1)), " p^v =", p_v, " pbar =", p_bar)
    print("leading form of expansion  =", phi.leading_form())
    print("expansion of p^v           =", expand_bivariate(p_v))
    print("expansion of pbar (differs)=", expand_bivariate(p_bar))
    print("classification =", classify(phi).verdict.value,
          " exponent =", loj_exponent(p).exponent)

    section("Solution space of -2y*phi_x + z*phi_y = 0, by degree")
    print(f"{'degree':>6}  {'dimension':>9}  {'floor(d/2)+1':>12}  {'basis == oracle':>15}")
    for d in range(9):
        oracle = kernel_oracle(d)
        ok = verify_basis_against_oracle(d)
        print(f"{d:>6}  {len(oracle.kernel_basis):>9}  {d // 2 + 1:>12}  {str(ok):>15}")

    section("Lojasiewicz exponents under support-extending deformations")
    pairs = [
        (T1, T1 + T2 ** 5),
        (T2 ** 2, T2 ** 2 + T1 ** 3),
        (T1 ** 2, T1 ** 2 + T1 * T2 ** 2 - T2 ** 3),
    ]
    for base, deformed in pairs:
        report = deformation_compare(base, deformed)
        print(f"{str(base):>24}  ->  {str(deformed):<28} "
              f"{report.base.exponent} -> {report.deformed.exponent}  "
              f"({report.ordering}=)")

    print()
    print("all worked examples verified")


if __name__ == "__main__":
    main()
