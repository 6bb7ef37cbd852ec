"""Fixtures shared by the test modules."""
import collections

import pytest

from echelon import KeeperState, gauche


@pytest.fixture
def sweeps_by_field(monkeypatch):
    """KeeperState constructions and eliminations, keyed by method and field
    name: ("__init__", "Q") counts the exact sweeps over Q, and the GF(P)
    keys (helpers.IMAGE) the sweeps of an image."""
    counts = collections.Counter()
    init, eliminate = KeeperState.__init__, KeeperState.eliminate

    def counted_init(self, field, dim):
        counts["__init__", str(field)] += 1
        init(self, field, dim)

    def counted_eliminate(self, values):
        counts["eliminate", str(self.field)] += 1
        return eliminate(self, values)

    monkeypatch.setattr(KeeperState, "__init__", counted_init)
    monkeypatch.setattr(KeeperState, "eliminate", counted_eliminate)
    return counts


@pytest.fixture
def swept(monkeypatch):
    """The sweeps that gauche's questions start, in order, as (matrix, field
    name) pairs: the matrix's own field for the exact sweep, and the GF(P)
    field (helpers.IMAGE) for its image."""
    sweeps = []
    answers = gauche._answers

    def recorded(m, js, field=None):
        sweeps.append((m, str(field or m.field)))
        return answers(m, js, field)

    monkeypatch.setattr(gauche, "_answers", recorded)
    return sweeps


@pytest.fixture
def rank_loop(monkeypatch):
    """The answers of the certificate's rank loop (gauche._independent), in
    order, ZeroDivisionError standing for a call that raised it."""
    answers = []
    independent = gauche._independent

    def recorded(m, js):
        try:
            answers.append(independent(m, js))
        except ZeroDivisionError:
            answers.append(ZeroDivisionError)
            raise
        return answers[-1]

    monkeypatch.setattr(gauche, "_independent", recorded)
    return answers
