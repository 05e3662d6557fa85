"""Reference optima f* computed independently of adasamp's solvers.

Square loss + L2 (CD objective, summed loss):
    f(x) = 1/2 ||A x - b||^2 + lam ||x||^2
is minimised by the linear system (A^T A + 2 lam I) x = A^T b, solved by
conjugate gradients (sparse designs) or a dense solve (tiny designs).

Logistic loss + L1 (SGD objective, mean loss):
    f(x) = mean_j log(1 + exp(-b_j a_j^T x)) + lam ||x||_1
is minimised with bound-constrained L-BFGS on the split x = u - v with
u, v >= 0, where the L1 term becomes the linear term lam * sum(u + v).
"""

from __future__ import annotations

import numpy as np
import scipy.optimize
import scipy.special
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Largest projected-gradient entry accepted from the logistic + L1 solve.
KKT_TOL = 1e-6


def ridge_objective(design, labels, lam, x) -> float:
    r = design @ x - labels
    return 0.5 * float(r @ r) + lam * float(x @ x)


def ridge_optimum(design, labels, lam) -> float:
    n = design.shape[1]
    rhs = design.T @ labels
    if sp.issparse(design):
        csr = sp.csr_matrix(design)
        csc = sp.csc_matrix(design)
        op = spla.LinearOperator(
            (n, n), matvec=lambda v: csc.T @ (csr @ v) + 2.0 * lam * v, dtype=np.float64
        )
        x, info = spla.cg(op, rhs, rtol=1e-13, atol=0.0, maxiter=20 * n)
        if info != 0:
            raise RuntimeError(f"reference CG did not converge (info={info})")
    else:
        gram = design.T @ design + 2.0 * lam * np.eye(n)
        x = np.linalg.solve(gram, rhs)
    grad = design.T @ (design @ x - labels) + 2.0 * lam * x
    if float(np.max(np.abs(grad))) > 1e-8 * max(1.0, float(np.max(np.abs(rhs)))):
        raise RuntimeError("reference ridge solve left a large gradient")
    return ridge_objective(design, labels, lam, x)


def logistic_l1_objective(design, labels, lam, x) -> float:
    z = design @ x
    return float(np.mean(np.logaddexp(0.0, -labels * z))) + lam * float(np.sum(np.abs(x)))


def logistic_l1_optimum(design, labels, lam) -> float:
    csr = sp.csr_matrix(design)
    csc = sp.csc_matrix(design)
    d, n = csr.shape

    def fun(w):
        x = w[:n] - w[n:]
        z = csr @ x
        loss = float(np.mean(np.logaddexp(0.0, -labels * z)))
        # d/dz log(1 + exp(-b z)) = -b * sigmoid(-b z)
        dz = -labels * scipy.special.expit(-labels * z) / d
        g = csc.T @ dz
        grad = np.concatenate([g + lam, -g + lam])
        return loss + lam * float(np.sum(w)), grad

    res = scipy.optimize.minimize(
        fun, np.zeros(2 * n), jac=True, method="L-BFGS-B",
        bounds=[(0.0, None)] * (2 * n),
        options={"maxiter": 20000, "maxcor": 20, "ftol": 1e-12, "gtol": 1e-8},
    )
    if not res.success:
        raise RuntimeError(f"reference L-BFGS-B failed: {res.message}")
    # KKT conditions of the split problem: the gradient vanishes on free
    # variables and is non-negative on variables held at the bound 0.
    _, grad = fun(res.x)
    projected = np.where(res.x > 0.0, np.abs(grad), np.maximum(0.0, -grad))
    if float(np.max(projected)) > KKT_TOL:
        raise RuntimeError("reference L-BFGS-B left a large projected gradient")
    x = res.x[:n] - res.x[n:]
    return logistic_l1_objective(csr, labels, lam, x)

