"""Fixtures shared by the test modules."""
import sys

import pytest

from echelon import gauche

from helpers import Sweep


@pytest.fixture
def routes(monkeypatch):
    """What gauche ran, in order: a Sweep for each call of gauche._answers,
    and the verdict of each call of the certificate's rank loop
    (gauche._independent), ZeroDivisionError standing for a call that
    raised it.

    _answers is patched in every module that imported it. Its Sweep is
    logged when it is called, as its KeeperState is built, and counts each
    answer it yields, one KeeperState.eliminate each."""
    log = []
    answers, independent = gauche._answers, gauche._independent

    def counted(sweep, source):
        for answer in source:
            sweep.answered += 1
            yield answer

    def logged(m, js, field=None):
        log.append(sweep := Sweep(m, str(field or m.field)))
        return counted(sweep, answers(m, js, field))

    def ranked(m, js):
        try:
            log.append(independent(m, js))
        except ZeroDivisionError:
            log.append(ZeroDivisionError)
            raise
        return log[-1]

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "echelon" and getattr(module, "_answers", None) is answers:
            monkeypatch.setattr(module, "_answers", logged)
    monkeypatch.setattr(gauche, "_independent", ranked)
    return log
