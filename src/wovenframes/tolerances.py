"""Every numerical threshold the toolkit decides with: one name per decision.

These are constants, not settings; no function takes a tolerance argument.
"""

FRAME_TOL = 1e-10  # frame (woven, onto, Riesz): lower bound > FRAME_TOL * max(1, upper)
CLAMP_TOL = 1e-12  # a smallest eigenvalue >= -CLAMP_TOL * max(1, largest) reads as 0
RANK_TOL = 1e-10  # Gram-Schmidt: residual <= RANK_TOL * (1 + largest norm) is dependent
GRAM_TOL = 1e-9  # orthonormal or mutually orthogonal columns, entrywise
SYM_TOL = 1e-10  # symmetric matrix, entrywise
PIVOT_TOL = 1e-10  # singular: s_min <= PIVOT_TOL * max(1, max|m|)
INTERSECT_TOL = 1e-8  # shared direction: singular value of [B_W | -B_K] <= INTERSECT_TOL
PATTERN_TOL = 1e-8  # P_W P_K equals the projector onto the intersection, entrywise
INVARIANCE_TOL = 1e-8  # E^T E maps a member into itself, relative to 1 + max|E^T E|
SELF_ADJOINT_TOL = 1e-9  # symmetric operator E, entrywise
WEIGHT_TOL = 1e-12  # two families share their weights, entrywise
HOLD_SLACK = 1e-9  # slack on an inequality that must hold (certificates, bound chains)
WITNESS_EPS = 1e-8  # a weaving whose smallest eigenvalue is below this is non-woven
ENTRY_TOL = 1e-12  # ex3_2's frame operator equals its integer matrix, entrywise
EX4_2_WITNESS_BOUND = 1e-12  # ex4_2's reference bound on |witness value|
