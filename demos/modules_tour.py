"""A tour of the simple finite-dimensional modules.

Run with:  python3 demos/modules_tour.py

Modules act on row vectors: v . a = v M_a, so composite actions read
left to right.  All matrices are exact over a cyclotomic field.
"""

from qheisenberg import (KIND_V1, KIND_V2, ModuleDescriptor, build_qplane,
                         build_v1, build_v2, build_v3, classify, derive_params,
                         direct_sum, find_intertwiner, is_simple, iso_test,
                         ord_formula, pi_degree, theta_matrix,
                         verify_relations, zeta_power, Z_TORSION)

params = derive_params(2, 3, 1, 1)
g = zeta_power(6, 1)
print(f"parameters: orders (2, 3), so the dimension ceiling is "
      f"{pi_degree(2, 3)}")

# Three cyclic families. The first has invertible x-action, the second
# nilpotent x and invertible y, the third both nilpotent.
v1 = build_v1(params, mu=g, lam=2, gamma=3)
v2 = build_v2(params, mu=2, lam=g)
v3 = build_v3(params, lam=3)
for name, rep in (("V1", v1), ("V2", v2), ("V3", v3)):
    check = verify_relations(rep)
    print(f"{name}: dim {rep.d}, relations hold: {check.ok}, "
          f"simple: {is_simple(rep)}")

# The twist element acts diagonally on each of them.
th = theta_matrix(v2)
print("theta on V2 is diagonal:",
      ", ".join(str(th[i][i]) for i in range(v2.d)))

# A direct sum is never simple; the span of the action matrices stops
# short of the full matrix algebra.
print("V3 + V3 simple:", is_simple(direct_sum(v3, v3)))

# When z acts by zero the module factors through a quantum plane.
qp = build_qplane(params, Z_TORSION, a=2, b=g)
print(f"z-torsion quantum-plane module: dim {qp.d}, "
      f"classified as {classify(qp).kind}")

# classify recovers a descriptor, and iso_test compares descriptors.
# Only mu^l is an invariant, so the recovered cycle scalar may differ
# from the one the module was built with by a root of unity; here the
# build used mu = g but classification returns mu = 1, and the next
# check confirms the twist is invisible up to isomorphism.
desc = classify(v1)
print(f"classify(V1) kind: {desc.kind}, mu recovered as {desc.mu}")
twisted = ModuleDescriptor(KIND_V1, mu=g * desc.mu, lam=desc.lam,
                           gamma=desc.gamma)
ok, k = iso_test(KIND_V1, desc, twisted, params)
print(f"root-of-unity twist is an isomorphism: {ok} (weight shift {k})")

# Shifting the z-weight by p forces the theta-weight to shift by q^-1;
# with only one of the two shifted, the modules may still be isomorphic
# at a larger shift, or not at all.
shifted = ModuleDescriptor(KIND_V1, mu=desc.mu, lam=params.p * desc.lam,
                           gamma=desc.gamma)
print("p-shift of lam alone:", iso_test(KIND_V1, desc, shifted, params))
scaled = ModuleDescriptor(KIND_V1, mu=desc.mu, lam=2 * desc.lam,
                          gamma=desc.gamma)
print("doubling lam:", iso_test(KIND_V1, desc, scaled, params))

# A subtlety at orders (4, 4): there p*q has order 2 < 4, the x-action
# of the second family develops an extra kernel vector, and modules whose
# lam differ by p^-2 = -1 turn out isomorphic.  The scalar criterion
# shifts a V2 weight basis by multiples of ord(pq), so it agrees with the
# intertwiner the kernel solver finds.
p44 = derive_params(4, 4, 1, 1)
print(f"\nat (4, 4): ord(pq) = {ord_formula(4, 4, 1, 1)}")
rep_a = build_v2(p44, mu=1, lam=2)
rep_b = build_v2(p44, mu=1, lam=-2)
bridge = find_intertwiner(rep_a, rep_b)
print(f"scalar criterion on (lam, -lam): "
      f"{iso_test(KIND_V2, classify(rep_a), classify(rep_b), p44)[0]}")
print(f"kernel solver finds an invertible intertwiner: "
      f"{bridge is not None}")
