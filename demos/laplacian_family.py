"""Tour of the four Laplacian realizations on one masked grid.

The same 5-point stencil, four different contracts: Dirichlet rows,
Neumann rows, both sets at once (overdetermined, needs compatible data),
or neither (underdetermined, returns the minimum-norm representative).
"""

import numpy as np

from bizoo import (
    CompatibilityError,
    Field,
    OperatorCatalog,
    build_domain,
    solve_laplace,
)

domain = build_domain("lshape", 16)
catalog = OperatorCatalog(domain)
space = domain.cell_space
print(f"L-shaped mask, n=16: {domain.n_cells} cells, "
      f"{len(domain.boundary_faces)} boundary faces")

x, y = domain.cell_centers().T
f = Field(space, np.sin(np.pi * x) * np.cos(np.pi * y))

# Dirichlet: always solvable
rep = solve_laplace("dirichlet", catalog, f)
print(f"\ndirichlet   max u = {rep.solution.values.max():.6f}, "
      f"{rep.iterations} refinement steps, residual {rep.pde_residual_norm:.1e}")

# Neumann: data must be mean-free, solution is returned mean-free
try:
    solve_laplace("neumann", catalog, space.ones())
except CompatibilityError as exc:
    print(f"neumann     rejects constant data: {exc}")
mean = space.inner(f.values, np.ones(domain.n_cells))
f0 = Field(space, f.values - mean / space.inner(
    np.ones(domain.n_cells), np.ones(domain.n_cells)))
rep = solve_laplace("neumann", catalog, f0)
print(f"neumann     mean-free data accepted, "
      f"constraints {rep.constraint_norms}")

# overdetermined: both boundary conditions, so the data is gated
try:
    solve_laplace("overdetermined", catalog, f)
except CompatibilityError as exc:
    print(f"overdet     generic data rejected ({exc.subspace} defect "
          f"{exc.defect:.3e})")
inner = np.random.default_rng(0).normal(size=domain.ring_cells(1).size)
g = Field(space, catalog.interior_laplacian.apply_raw(inner))
rep = solve_laplace("overdetermined", catalog, g)
print(f"overdet     range data solved, boundary trace "
      f"{rep.constraint_norms['zero trace on boundary ring']:.1e}")

# underdetermined: no boundary conditions; the boundary strip of the
# data cannot influence the solution and its mass is reported
rep = solve_laplace("underdetermined", catalog, f)
print(f"underdet    solved, discarded boundary-ring mass "
      f"{rep.discarded_ring_mass:.6f} of |f| = {f.norm():.6f}")
