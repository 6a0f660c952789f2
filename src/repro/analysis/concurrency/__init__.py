"""Concurrency-correctness lint rules (the REPRO2xx family).

The serve daemon made the reproduction a long-lived multi-threaded
system: resident blocks, the result cache, and the admission buckets
are all mutated concurrently by request threads.  This
package is the static half of the concurrency-correctness layer — AST
rules over the lock discipline those modules rely on:

* :mod:`repro.analysis.concurrency.locks` — the shared lock model: which
  classes own locks, which ``with`` blocks hold them, and the
  lock-acquisition edges implied by nested ``with`` statements;
* :mod:`repro.analysis.concurrency.rules` — the REPRO201–REPRO206 rule
  catalogue, registered into the same :data:`repro.analysis.rules.RULES`
  registry the REPRO1xx closure rules live in, so ``repro lint`` picks
  them up automatically.

The dynamic half — the runtime lock-order sanitizer — lives in
:mod:`repro.engine.lockwatch`.
"""

from repro.analysis.concurrency.locks import (
    LOCK_FACTORIES,
    ClassLockModel,
    FunctionScan,
    ModuleLockScan,
    is_lock_factory_call,
    lock_expr_label,
    lock_scan,
)
from repro.analysis.concurrency import rules as rules  # registers REPRO2xx

__all__ = [
    "LOCK_FACTORIES",
    "ClassLockModel",
    "FunctionScan",
    "ModuleLockScan",
    "is_lock_factory_call",
    "lock_expr_label",
    "lock_scan",
    "rules",
]
