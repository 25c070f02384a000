"""Checkable numeric contracts: ``@requires`` / ``@ensures``.

The paper's theorems come with explicit preconditions — Theorem 2's
ratio-error bound for GEE assumes ``1 <= r <= n``, the jackknifes need a
non-empty sample, Shlosser's estimator a positive population — and the
estimator entry points now carry them as machine-readable clauses::

    @requires("r >= 1", "r <= n")
    @ensures("result >= d")
    def estimate(...): ...

Each clause is a Python expression over the function's parameters
(attribute chains like ``column.size`` and, for ``@ensures``, the name
``result`` — or ``result[i]`` for tuple returns).  The clauses serve two
consumers:

* **statically**, reprolint's dataflow engine
  (:mod:`repro.analysis.dataflow`) parses the same strings into its
  interval domain: ``@requires`` seeds parameter facts, ``@ensures`` is
  assumed at call sites and verified at every return — ``proved``
  clauses cost nothing at runtime, unprovable ones are the documented
  residue the runtime checks cover;
* **at runtime**, the clauses compile into optional asserts.  They are
  **off by default** (zero overhead beyond one flag check) and enabled
  under ``REPRO_CONTRACTS=1`` — which the CI matrix sets — or via
  :func:`set_runtime_checks`.  The environment is read once, at import;
  the flag is a module global, so a contracted call never touches
  ``os.environ``.  ``set_runtime_checks(None)`` re-reads it.

Metadata is always attached (``__repro_contracts__``), so coverage gates
can verify every public estimator carries a contract without enabling
checks.
"""

from __future__ import annotations

import ast
import builtins
import functools
import inspect
import math
import os
from types import CodeType
from typing import Any, Callable, TypeVar

from repro.errors import InvalidParameterError

__all__ = [
    "ContractViolationError",
    "check_contracts",
    "contract_clauses",
    "ensures",
    "requires",
    "runtime_checks_enabled",
    "set_runtime_checks",
]

F = TypeVar("F", bound=Callable[..., Any])

#: Environment switch; any value other than empty/0/false/off enables checks.
ENV_FLAG = "REPRO_CONTRACTS"

_DISABLED_VALUES = frozenset({"", "0", "false", "False", "off", "no"})

#: Names clauses may use beyond the function's own parameters.  Clauses
#: are trusted in-repo strings (they live in decorators next to the code
#: they describe), so they get real builtins — numpy ufuncs and reductions
#: need them.
_CLAUSE_GLOBALS: dict[str, Any] = {
    "__builtins__": builtins,
    "math": math,
}

_NON_PARAMETER_NAMES = frozenset({"math"}) | frozenset(dir(builtins))


class ContractViolationError(AssertionError):
    """A ``@requires``/``@ensures`` clause evaluated false at runtime."""


def _env_enabled() -> bool:
    return os.environ.get(ENV_FLAG, "") not in _DISABLED_VALUES


#: The flag every contracted call checks: ``REPRO_CONTRACTS`` as read at
#: import, until :func:`set_runtime_checks` changes it.
_ENABLED: bool = _env_enabled()


def runtime_checks_enabled() -> bool:
    """True when contract clauses are being evaluated on each call."""
    return _ENABLED


def set_runtime_checks(enabled: bool | None) -> None:
    """Force runtime checking on/off; ``None`` re-reads ``REPRO_CONTRACTS``."""
    global _ENABLED
    _ENABLED = _env_enabled() if enabled is None else enabled


def contract_clauses(func: Callable[..., Any]) -> dict[str, list[str]]:
    """The declared clause strings of a contracted callable.

    Returns ``{"requires": [...], "ensures": [...]}`` — empty lists when
    the callable carries no contract.  Follows ``__wrapped__`` chains so
    it works on further-decorated functions.
    """
    current: Any = func
    while current is not None:
        meta = getattr(current, "__repro_contracts__", None)
        if meta is not None:
            return {
                "requires": [text for text, _code in meta["requires"]],
                "ensures": [text for text, _code in meta["ensures"]],
            }
        current = getattr(current, "__wrapped__", None)
    return {"requires": [], "ensures": []}


def _contract_meta(
    func: Callable[..., Any],
) -> dict[str, list[tuple[str, CodeType]]] | None:
    current: Any = func
    while current is not None:
        meta = getattr(current, "__repro_contracts__", None)
        if meta is not None:
            return meta  # type: ignore[no-any-return]
        current = getattr(current, "__wrapped__", None)
    return None


def check_contracts(
    func: Callable[..., Any], namespace: dict[str, Any], kind: str = "ensures"
) -> None:
    """Evaluate a contracted callable's clauses against an explicit namespace.

    Batched evaluation paths (``estimate_batch``) compute many results in
    one call but must enforce the *same* per-result contracts the scalar
    path does; this helper re-runs a function's compiled ``requires`` or
    ``ensures`` clauses with caller-supplied bindings (parameter names,
    plus ``result`` for ``ensures``).  No-op for uncontracted callables.
    Raises :class:`ContractViolationError` exactly as the scalar wrapper
    would.
    """
    if kind not in ("requires", "ensures"):
        raise InvalidParameterError(
            f"kind must be 'requires' or 'ensures', got {kind!r}"
        )
    meta = _contract_meta(func)
    if meta is None:
        return
    for compiled in meta[kind]:
        _check(compiled, namespace, func, kind)


def _compile_clause(clause: str, kind: str) -> tuple[str, CodeType]:
    try:
        tree = ast.parse(clause, mode="eval")
    except SyntaxError as exc:
        raise InvalidParameterError(
            f"invalid @{kind} clause {clause!r}: {exc}"
        ) from exc
    return clause, compile(tree, f"<{kind}: {clause}>", "eval")


def _holds(value: Any) -> bool:
    """Clause truth, tolerating numpy scalars and elementwise arrays."""
    try:
        return bool(value)
    except (TypeError, ValueError):
        reduce_all = getattr(value, "all", None)
        if callable(reduce_all):
            return bool(reduce_all())
        return False


def _check(
    compiled: tuple[str, CodeType],
    namespace: dict[str, Any],
    func: Callable[..., Any],
    kind: str,
) -> None:
    text, code = compiled
    try:
        value = eval(code, _CLAUSE_GLOBALS, namespace)  # noqa: S307 - clauses
    except ContractViolationError:
        raise
    except Exception as exc:
        raise ContractViolationError(
            f"@{kind}({text!r}) on {func.__qualname__} could not be "
            f"evaluated: {exc}"
        ) from exc
    if not _holds(value):
        bindings = ", ".join(
            f"{name}={namespace[name]!r}"
            for name in sorted(_clause_names(text))
            if name in namespace
        )
        raise ContractViolationError(
            f"@{kind}({text!r}) violated on {func.__qualname__}"
            + (f" with {bindings}" if bindings else "")
        )


@functools.lru_cache(maxsize=None)
def _clause_names(clause: str) -> frozenset[str]:
    try:
        tree = ast.parse(clause, mode="eval")
    except SyntaxError:  # pragma: no cover - rejected at decoration time
        return frozenset()
    return frozenset(
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id not in _NON_PARAMETER_NAMES
    )


def _contracted(func: F) -> F:
    """Wrap ``func`` once; stacked contract decorators share the wrapper."""
    if getattr(func, "__repro_contracts_owner__", False):
        return func
    contracts: dict[str, list[tuple[str, CodeType]]] = {
        "requires": [],
        "ensures": [],
    }
    signature = inspect.signature(func)

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not _ENABLED:
            return func(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        namespace = dict(bound.arguments)
        for compiled in contracts["requires"]:
            _check(compiled, namespace, func, "requires")
        result = func(*args, **kwargs)
        namespace["result"] = result
        for compiled in contracts["ensures"]:
            _check(compiled, namespace, func, "ensures")
        return result

    wrapper.__repro_contracts_owner__ = True  # type: ignore[attr-defined]
    wrapper.__repro_contracts__ = contracts  # type: ignore[attr-defined]
    return wrapper  # type: ignore[return-value]


def _add_clauses(kind: str, clauses: tuple[str, ...]) -> Callable[[F], F]:
    if not clauses:
        raise InvalidParameterError(f"@{kind} needs at least one clause")
    compiled = [_compile_clause(clause, kind) for clause in clauses]

    def decorate(func: F) -> F:
        wrapped = _contracted(func)
        meta: dict[str, list[tuple[str, CodeType]]] = (
            wrapped.__repro_contracts__  # type: ignore[attr-defined]
        )
        meta[kind].extend(compiled)
        return wrapped

    return decorate


def requires(*clauses: str) -> Callable[[F], F]:
    """Declare preconditions over the decorated function's parameters."""
    return _add_clauses("requires", clauses)


def ensures(*clauses: str) -> Callable[[F], F]:
    """Declare postconditions; ``result`` names the return value."""
    return _add_clauses("ensures", clauses)
