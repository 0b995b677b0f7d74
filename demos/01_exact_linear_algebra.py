"""Exact linear algebra over the Gaussian rationals.

Everything in monadcalc runs over Q(i) with exact arithmetic: ranks,
kernels, invariant closures and eigenvalues are computed symbolically,
never with floating point.  This script walks through the substrate.
"""

from monadcalc import (Matrix, Subspace, char_poly, commuting_reduce,
                       eigenvalues, invariant_closure, kernel_basis,
                       max_invariant_in_kernel, nilpotency_index, qi, rank)

# Matrices are built from ints, "p/q" strings, or (re, im) pairs.
M = Matrix.from_rows([[1, qi(0, 1)], [qi(0, 1), -1]])
print("M =", M)
print("rank(M) =", rank(M), " (row 2 is i times row 1)")
print("kernel of M:", kernel_basis(M).basis)

# Subspaces are kept in reduced column echelon form, so equality of
# subspaces is literal equality of their basis matrices.
V = Subspace.from_span(Matrix.from_rows([[1, 3], [2, 6], [0, 0]]))
print("\nspan of two proportional columns has dim", V.dim)

# Invariant closure: the smallest subspace containing a seed and stable
# under a family of operators; the seed is given by spanning columns.
# With the nilpotent shift J (J e2 = e1), the closure of e2 is the whole
# plane; the closure of e1 is just e1.
J = Matrix.from_rows([[0, 1], [0, 0]])
e1, e2 = Matrix.column([1, 0]), Matrix.column([0, 1])
print("\nclosure of e2 under J has dim", invariant_closure([J], e2).dim)
print("closure of e1 under J has dim", invariant_closure([J], e1).dim)

# The dual notion: the largest J-invariant subspace inside Ker c.
c = Matrix.from_rows([[0, 1]])
W = max_invariant_in_kernel([J], c)
print("largest J-invariant subspace in Ker(0 1):", W.basis)

# Nilpotency indices are exact (None means not nilpotent).
print("\nnilpotency index of J:", nilpotency_index(J))
print("nilpotency index of identity:", nilpotency_index(Matrix.identity(2)))

# Commuting families are simultaneously triangularized exactly, as long
# as the characteristic polynomials split over Q(i).
S = Matrix.from_rows([[0, -1], [1, 0]])   # eigenvalues are +-i
print("\nchar poly of the rotation matrix:", char_poly(S))
print("its eigenvalues over Q(i):", eigenvalues(S))
g, (T,) = commuting_reduce([S])
print("triangularized:", T)
