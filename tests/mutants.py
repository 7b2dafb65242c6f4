"""Planted mutants that named oracle tests must catch.

Run from the repository root: ``python3 tests/mutants.py``. It is not part of
the tier-1 suite (pytest collects only ``test_*.py``).

Each row of ``MUTANTS`` names a module under ``src/devicesurv``, an exact
source snippet, its replacement and the test node ids that must fail with it.
For each row the script copies ``src/`` to a temporary directory, checks that
the snippet occurs exactly once in the module, applies the replacement and
runs only the named tests against the copy, with a fixed
``--hypothesis-seed`` and an empty example database, so a rerun gives the
same verdict. Hypothesis stops at the first failing example: a mutant needs
only to be caught, not shrunk to a minimal case. A snippet that no longer
occurs exactly once fails its row: a refactor must update the row, not lose
it. A known survivor is marked as one, with the reason the tests miss it; its
verdict is reported, not hidden, and fails no row either way, since a
mutant that only rare draws catch can flip with the hypothesis version.

The script prints one markdown table row per mutant and the total time, and
exits 1 when any row does not behave as the table says.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
HYPOTHESIS_SEED = 0


class Mutant(NamedTuple):
    name: str
    module: str  # a path under src/devicesurv
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    survives: str = ""  # why the tests cannot see it, for a known survivor


_EM_STEP = "tests/test_weaksup.py::TestEMOracle::test_one_step_matches_the_numpy_bodies"
_EM_FIT = "tests/test_weaksup.py::TestEMOracle::test_full_fit_matches_the_numpy_fit"
_PARSE_DATE = "tests/test_outcomes.py::TestParseDate::test_matches_oracle"
_STATISTICS = "tests/test_weaksup.py::TestStatisticsOracle::test_equal_to_the_numpy_bodies"
_COVERED = "tests/test_weaksup.py::TestCoverage::test_covered_candidate_ids"
_LOGRANK_HAND = ("tests/test_survival.py::TestRiskSetOracles::"
                 "test_logrank_hand_fixture_against_loop")
_LOGRANK_TIED = ("tests/test_survival.py::TestRiskSetOracles::"
                 "test_logrank_tied_three_groups_against_loop")
_COX_SE = ("tests/test_survival.py::TestRiskSetOracles::"
           "test_cox_se_against_finite_difference_hessian")
_CSR_PRODUCTS = "tests/test_classifier.py::TestNumpyCsr::test_products_match_scipy_bit_for_bit"
_USAGE = "tests/test_cli.py::TestUsageErrors::test_exits_2_with_usage_and_writes_nothing"

MUTANTS = (
    # The label model's EM over the vote-pattern histogram.
    Mutant("M-step drops the row count", "weaksup.py",
           "agree[j] += count * (q[row] if v == TRUE else 1 - q[row])",
           "agree[j] += q[row] if v == TRUE else 1 - q[row]", (_EM_STEP, _EM_FIT)),
    Mutant("posterior drops the class prior", "weaksup.py",
           "z = math.log(pi) - math.log(1 - pi) + log_true - log_false",
           "z = log_true - log_false", (_EM_STEP,)),
    Mutant("Y=F scores a vote as Y=T does", "weaksup.py",
           "given_false.append((agree, disagree, abstain))",
           "given_false.append((disagree, agree, abstain))", (_EM_STEP, _EM_FIT)),
    Mutant("beta over distinct rows, not rows", "weaksup.py",
           "beta = [c / n for c in covered]",
           "beta = [c / len(histogram) for c in covered]", (_EM_FIT,)),
    Mutant("no symmetry flip", "weaksup.py",
           "if sum(active) / len(active) < 0.5:", "if False:", (_EM_FIT,)),
    Mutant("stopping test with <=", "weaksup.py",
           "< EM_TOL * abs(ll_history[-2])", "<= EM_TOL * abs(ll_history[-2])", (_EM_FIT,),
           survives="differs only when the relative change equals EM_TOL exactly"),
    # errors.parse_date: the cell language of every date column.
    Mutant("trailing Z accepted", "errors.py",
           r':[0-5]\d)?",', r':[0-5]\d|Z)?",', (_PARSE_DATE,)),
    Mutant("hour 24 accepted", "errors.py",
           r"[T ](?:[01]\d|2[0-3])", r"[T ](?:[01]\d|2[0-4])", (_PARSE_DATE,)),
    Mutant("minute 60 accepted", "errors.py",
           r'):[0-5]\d"', r'):(?:[0-5]\d|60)"', (_PARSE_DATE,)),
    Mutant("second 60 accepted", "errors.py",
           r"(?::[0-5]\d(?:\.", r"(?::(?:[0-5]\d|60)(?:\.", (_PARSE_DATE,)),
    Mutant("offset hour 24 accepted", "errors.py",
           r"[+-](?:[01]\d|2[0-3])", r"[+-](?:[01]\d|2[0-4])", (_PARSE_DATE,)),
    Mutant("fast path without its length test", "errors.py",
           'if len(cell) == 10 and cell[4] == cell[7] == "-":',
           'if cell[4:5] == cell[7:8] == "-":', (_PARSE_DATE,)),
    Mutant("no ValueError on a non-match", "errors.py",
           "if match is None:", "if False:", (_PARSE_DATE,)),
    Mutant("re.ASCII dropped", "errors.py", "re.ASCII)", "0)", (_PARSE_DATE,)),
    # The LF statistics and the covered rows, over the vote-pattern histogram.
    Mutant("overlap at one vote", "weaksup.py",
           "row.count(ABSTAIN) >= 2", "row.count(ABSTAIN) >= 1", (_STATISTICS,)),
    Mutant("all-abstain row covered", "weaksup.py",
           "if TRUE in row or FALSE in row]", "if row.count(ABSTAIN) <= len(row)]", (_COVERED,)),
    Mutant("all-abstain soft vote 0.0", "weaksup.py",
           "if n_true + n_false else 0.5", "if n_true + n_false else 0.0", (_STATISTICS,)),
    Mutant("agreement skips FALSE", "weaksup.py",
           "if v == label:", "if v == label == TRUE:", (_STATISTICS,)),
    # The risk-set table KM, log-rank and Cox share.
    Mutant("event time binned before its own time", "survival.py",
           'self.index = np.searchsorted(self.times, times, side="right")',
           'self.index = np.searchsorted(self.times, times, side="left")',
           (_LOGRANK_HAND, _LOGRANK_TIED, _COX_SE)),
    Mutant("at risk summed forwards", "survival.py",
           "return np.cumsum(self.per_time(values)[::-1], axis=0)[::-1]",
           "return np.cumsum(self.per_time(values), axis=0)",
           (_LOGRANK_HAND, _LOGRANK_TIED, _COX_SE)),
    Mutant("log-rank variance without the ties factor", "survival.py",
           "f = d * (n - d) / np.maximum(n - 1, 1) / n**2", "f = d / n**2",
           (_LOGRANK_HAND, _LOGRANK_TIED)),
    Mutant("Cox information without the mean term", "survival.py",
           " - (xbar * d[:, None]).T @ xbar", "", (_COX_SE,)),
    # The classifier's CSR products, summed in scipy's order.
    Mutant("X @ w summed in reverse", "classifier.py",
           "np.bincount(_entry_rows(X), X.data * w[X.indices], minlength=X.shape[0])",
           "np.bincount(_entry_rows(X)[::-1], (X.data * w[X.indices])[::-1], "
           "minlength=X.shape[0])", (_CSR_PRODUCTS,)),
    Mutant("X.T @ r summed in reverse", "classifier.py",
           "np.bincount(X.indices, X.data * r[_entry_rows(X)], minlength=X.shape[1])",
           "np.bincount(X.indices[::-1], (X.data * r[_entry_rows(X)])[::-1], "
           "minlength=X.shape[1])", (_CSR_PRODUCTS,)),
    # The command line: a required option left out is a usage error.
    Mutant("options never required", "cli.py",
           "required=default is None", "required=False", (_USAGE,)),
)

# A pytest plugin, written next to each copy, whose profile skips shrinking.
_PROFILE = """from hypothesis import Phase, settings

settings.register_profile("mutants", phases=(Phase.explicit, Phase.generate))
"""

_FAILED = re.compile(r"^FAILED (\S+?)(?:\[| - |$)", re.MULTILINE)


def run(mutant: Mutant, workdir: Path) -> tuple[bool, str]:
    """Whether ``mutant`` behaves as its row says, and what happened."""
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "devicesurv" / mutant.module
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        return False, f"the snippet occurs {text.count(mutant.snippet)} times, not once"
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    (workdir / "mutant_profile.py").write_text(_PROFILE, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(workdir))),
               PYTHONDONTWRITEBYTECODE="1",
               HYPOTHESIS_STORAGE_DIRECTORY=str(workdir / "hypothesis"))
    loaded = subprocess.run(
        [sys.executable, "-c", "import devicesurv; print(devicesurv.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True).stdout.strip()
    if not loaded.startswith(str(src)):
        return False, f"the tests would import {loaded or 'nothing'}, not the mutated copy"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "-p", "mutant_profile", "--hypothesis-profile=mutants",
         f"--hypothesis-seed={HYPOTHESIS_SEED}", *mutant.tests],
        env=env, cwd=ROOT, capture_output=True, text=True)
    if result.returncode not in (0, 1):  # not a test outcome: a missing id, a crash
        output = " ".join((result.stdout + result.stderr).split())  # one table cell
        return False, f"pytest exit {result.returncode}: {output[-300:]}"
    failed = set(_FAILED.findall(result.stdout))
    passing = [t for t in mutant.tests if t not in failed]
    if mutant.survives:
        caught = "caught at this seed" if len(passing) < len(mutant.tests) else "survives"
        return True, f"known survivor, {caught}: {mutant.survives}"
    if passing:
        return False, f"not caught by {', '.join(passing)}"
    return True, "caught"


def main() -> int:
    start, bad = time.perf_counter(), 0
    print("| mutant | module | verdict | seconds |\n| --- | --- | --- | ---: |")
    for mutant in MUTANTS:
        row_start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            ok, verdict = run(mutant, Path(tmp))
        bad += not ok
        print(f"| {mutant.name} | {mutant.module} | {'' if ok else 'FAIL: '}{verdict} | "
              f"{time.perf_counter() - row_start:.1f} |", flush=True)
    print(f"\n{len(MUTANTS)} mutants, {bad} not as recorded, "
          f"in {time.perf_counter() - start:.1f} s (hypothesis seed {HYPOTHESIS_SEED})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
