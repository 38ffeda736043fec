"""RL006 — weight GEMMs in ``repro.nn`` go through the compute backend.

The inference hot path dispatches every weight-matrix product through the
active :class:`repro.backend.ComputeBackend` (``linear`` / ``matmul`` /
``masked_mlp``), which is what lets the gather backend's kernels swap in
without touching layer code — and what the backend parity suite
actually covers.  A raw ``x @ self.weight.data`` (or ``np.matmul``/``np.dot``
on a weight array) buried in a layer silently bypasses the seam: it stays
dense-numpy under every backend and escapes parity testing.  This rule flags
``@`` expressions and ``np.matmul``/``np.dot`` calls inside ``repro.nn``
whose operands reference a weight matrix (``weight`` / ``w_up`` / ``w_gate``
/ ``w_down``).

Tensor-autograd method calls (``x.matmul(self.weight.T)`` on the training
path) and backend dispatches (``backend.matmul(...)``) are deliberately not
flagged — the seam only governs the ndarray inference path.  Legitimate
exceptions (e.g. a reference implementation kept for tests) carry a
``# reprolint: disable=RL006 -- <reason>`` waiver.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from tools.reprolint.core import Finding, Project, Rule

#: Attribute/variable names that identify a weight matrix operand.
WEIGHT_NAMES = frozenset({"weight", "w_up", "w_gate", "w_down"})

FIXIT = (
    "dispatch through the active compute backend instead "
    "(repro.backend: active_backend().linear/matmul/masked_mlp)"
)


class BackendSeamRule(Rule):
    id = "RL006"
    name = "backend-seam"
    description = (
        "weight-matrix products in repro.nn must dispatch through the "
        "compute backend, not raw '@' / np.matmul / np.dot"
    )
    scope = ("src/repro/nn/*.py",)

    def run(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for source in project.sources_matching(self.scope):
            if source.tree is None:
                continue
            for node in ast.walk(source.tree):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                    if self._touches_weight(node.left) or self._touches_weight(node.right):
                        findings.append(
                            Finding(
                                self.id, source.rel, node.lineno,
                                "raw '@' on a weight matrix bypasses the compute-backend seam",
                                FIXIT,
                            )
                        )
                elif self._is_numpy_gemm(node):
                    assert isinstance(node, ast.Call)
                    if any(self._touches_weight(arg) for arg in node.args):
                        findings.append(
                            Finding(
                                self.id, source.rel, node.lineno,
                                "np.matmul/np.dot on a weight matrix bypasses the "
                                "compute-backend seam",
                                FIXIT,
                            )
                        )
        return findings

    @staticmethod
    def _is_numpy_gemm(node: ast.AST) -> bool:
        """True for ``np.matmul(...)`` / ``np.dot(...)`` / ``numpy.*`` calls."""
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr in ("matmul", "dot")
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        )

    @staticmethod
    def _touches_weight(node: ast.AST) -> bool:
        """True when the operand subtree references a weight-matrix name."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in WEIGHT_NAMES:
                return True
            if isinstance(sub, ast.Attribute) and sub.attr in WEIGHT_NAMES:
                return True
        return False
