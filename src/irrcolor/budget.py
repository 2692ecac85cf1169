"""Cooperative time budgets for long-running searches, and per-graph scopes.

Solvers accept an optional token and poll it at branch boundaries, so a
caller can bound a whole run without killing the process.

A ``Scope`` is a token that also keeps the results its solvers share, so a
caller that asks several invariants of one graph computes each shared part
(chi, chi_d, which chi_gd starts from, the committee obstruction check
and the committee check's tables, which the searches and the verifier
read) once.  The irredundant-set walk is kept the same way but grows: each
reader extends it only as far as it reads, and a later reader starts from
the sets already built.  It answers ``expired()`` like the token it wraps, so it travels as the
``token`` argument and no solver signature changes.
"""

import time

from .errors import SearchCancelled


class Deadline:
    """Monotonic-clock deadline. ``expired()`` is cheap enough to poll."""

    __slots__ = ("at",)

    def __init__(self, seconds: float):
        self.at = time.monotonic() + seconds

    def expired(self) -> bool:
        return time.monotonic() >= self.at


def _never() -> bool:
    return False


class Scope:
    """The caller's budget plus a memo of shared results, for the solves of
    one graph.  Memo keys hold the graph they are about, so a result is
    never read for another graph."""

    __slots__ = ("expired", "memo")

    def __init__(self, token=None):
        self.expired = _never if token is None else token.expired
        self.memo: dict = {}


def scope(token) -> Scope:
    """``token`` itself when it is already a Scope, else a new Scope on it."""
    return token if type(token) is Scope else Scope(token)


def shared(token, key, compute):
    """``compute()``, once per scope: a Scope token keeps the result under
    ``key``; any other token computes it on every call.  A computation that
    raises, SearchCancelled included, leaves no entry."""
    if type(token) is not Scope:
        return compute()
    memo = token.memo
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def check(token) -> None:
    """Raise SearchCancelled when the token (if any) has expired."""
    if token is not None and token.expired():
        raise SearchCancelled("search budget exhausted")
