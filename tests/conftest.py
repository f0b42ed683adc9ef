"""Shared fixtures: parsed fixture programs and their profiles/models."""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import acctuner as at
from acctuner.loops import LoopNode

FIXTURES = Path(__file__).parent / "fixtures"

TUNE_FIXTURES = ("siblings3", "nested3", "synergy5", "deep3", "mix10")


@dataclass
class LoadedFixture:
    name: str
    source: str
    program: object
    tree: list[LoopNode]
    accesses: list
    profile: at.Profile
    genome_map: at.GenomeMap
    model_path: Path

    def evaluator(self):
        return at.build_evaluator(f"sim:{self.model_path}", self.program, self.tree,
                                  self.accesses, self.genome_map, self.profile)


def load_fixture(name: str, directory: str = "tune") -> LoadedFixture:
    base = FIXTURES / directory
    source = (base / f"{name}.c").read_text()
    program = at.parse(source)
    tree = at.build_loop_tree(program)
    accesses = at.extract_accesses(program)
    profile = at.load_profile(base / f"{name}_profile.json", tree)
    verdicts = at.check_all_parallelizable(tree, accesses)
    genome_map = at.build_genome_map(verdicts)
    return LoadedFixture(name, source, program, tree, accesses, profile,
                         genome_map, base / f"{name}_model.json")


@pytest.fixture(scope="session")
def tune_fixtures() -> dict[str, LoadedFixture]:
    return {name: load_fixture(name) for name in TUNE_FIXTURES}


@pytest.fixture(scope="session")
def stress_fixture() -> LoadedFixture:
    return load_fixture("stress75", "stress")


def analyze(source: str):
    program = at.parse(source)
    return program, at.build_loop_tree(program), at.extract_accesses(program)


def bench_module(name: str):
    """A module of bench/, which computes what it checks apart from acctuner."""
    sys.path.insert(0, str(FIXTURES.parent.parent / "bench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.pop(0)


def gen_large_record(seed: int) -> dict:
    """The benchmark's sim-large program for a seed with the generator's
    record of it (bench/gen_large.py)."""
    return bench_module("gen_large").generate(seed)


def is_pragma(line: str) -> bool:
    return line.lstrip().startswith("#pragma acc ")


def strip_pragmas(text: str) -> str:
    """The text with its `#pragma acc` lines deleted, read from the text alone."""
    return "\n".join(line for line in text.split("\n") if not is_pragma(line))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and "test_acceptance" in item.nodeid:
        terminal = item.config.pluginmanager.get_plugin("terminalreporter")
        if terminal is not None:
            verdict = "PASS" if report.passed else "FAIL"
            terminal.write_line(f"[acceptance] {item.name}: {verdict}")
