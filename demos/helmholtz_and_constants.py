"""Edge-field decomposition and the two computable constants.

A random edge field splits into a gradient part, a curl part, and (when
the mask has a hole) a harmonic loop the other two miss.  The best
constants of the gradient pairs certify the first-order estimate chains
and respect the diameter bound.
"""

import numpy as np

from bizoo import (
    Field,
    OperatorCatalog,
    best_constant,
    build_domain,
    constants_audit,
    estimate_chain_check,
    helmholtz_decompose,
    make_pair,
)

rng = np.random.default_rng(7)

for shape in ("square", "annulus"):
    domain = build_domain(shape, 16)
    catalog = OperatorCatalog(domain)
    grad_pair = make_pair(catalog.gradient)
    curl_pair = make_pair(catalog.curl)
    g = Field(domain.edge_space, rng.normal(size=domain.edge_space.dim))
    split = helmholtz_decompose(grad_pair, curl_pair, g)
    print(f"{shape:<8} dims {split.dims}, reconstruction error "
          f"{split.reconstruction_error():.1e}")
    print(f"         |gradient| {split.gradient_part.norm():.4f}  "
          f"|loop| {split.cohomology_part.norm():.4f}  "
          f"|curl| {split.curl_part.norm():.4f}")

print("\nconstants against the diameter bound d/pi:")
for shape, kw in (("square", {}), ("rectangle", {"width": 3.0}),
                  ("lshape", {})):
    audit = constants_audit(build_domain(shape, 32, **kw))
    print(f"  {shape:<10} c_f={audit['c_f_h']:.6f}  c_p={audit['c_p_h']:.6f}"
          f"  d/pi={audit['d_over_pi']:.6f}  bound_ok={audit['bound_ok']}")

domain = build_domain("square", 16)
catalog = OperatorCatalog(domain)
audit = constants_audit(catalog)
for kind, c in (("dirichlet", audit["c_f_h"]), ("neumann", audit["c_p_h"])):
    rep = estimate_chain_check(kind, catalog, c, samples=50)
    print(f"\n{kind} chain with its measured constant: ok={rep.ok()}, "
          f"worst ratios {rep.worst_first:.3f} / {rep.worst_second:.3f}")

# swap the pair on a dense-sized grid so the big adjoint-side kernel is
# discovered by SVD rather than needing an explicit basis
small = OperatorCatalog(build_domain("square", 10))
pair = make_pair(small.gradient_dirichlet)
print(f"\nswap symmetry at n=10: {best_constant(pair):.10f} vs "
      f"{best_constant(pair.swapped()):.10f}")
