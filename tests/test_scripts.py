"""Smoke tests: the scripts run end to end against the library API."""

import ast
import dataclasses
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["worked_examples.py"],
    ["random_survey.py", "--count", "20", "--dvmax", "6"],
    ["profile_by_file.py", "--workload", "oracle_sweep", "--seed", "41", "--passes", "1"],
    ["mutation_sample.py", "--count", "0", "lojasiewicz"],
    ["workload_reach.py", "--workload", "oracle_sweep", "--seed", "41"],
    ["cold_cli.py", "--runs", "1"],
])
def test_script_exits_zero(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    if argv[0] == "mutation_sample.py":
        assert result.stdout.startswith("killed 0 of 0 sampled from ")
    if argv[0] == "random_survey.py":
        timing = result.stdout.split("cpu time per map, ms (process_time):\n")[1]
        rows = [line.split() for line in timing.splitlines()[1:]]
        assert rows and all(len(row) == 3 for row in rows)
        assert all(float(p50) <= float(top) for _, p50, top in rows)
    if argv[0] == "profile_by_file.py":
        files, _, functions = result.stdout.partition("\ntop ")
        rows = [line.split() for line in files.splitlines()[2:]]
        assert "src/nagata/pde.py" in [row[2] for row in rows]
        assert abs(sum(float(row[0].rstrip("%")) for row in rows) - 100) < 1
        lines = functions.splitlines()
        assert lines[0] == "15 functions by self time"
        rows = [line.split(None, 3) for line in lines[2:]]
        assert len(rows) == 15
        shares = [float(row[0].rstrip("%")) for row in rows]
        assert shares == sorted(shares, reverse=True) and sum(shares) <= 100
        assert all(int(row[2]) >= 1 for row in rows)
        # file:line(function), or a built-in's own name
        assert all(row[3].endswith(")") or row[3].endswith(">") for row in rows)
    if argv[0] == "workload_reach.py":
        _check_reach(result.stdout)
    if argv[0] == "cold_cli.py":
        header, *rows = result.stdout.splitlines()
        assert header.startswith("package CPU of one cold call, ms: minimum of 1 runs")
        commands = [row.split()[1] for row in rows]
        assert commands == ["analyze", "invert", "compose", "classify", "basis",
                            "oracle", "loj", "decompose", "random"]
        for row in rows:
            float(row.split()[0])  # each row starts with its CPU in ms


def _check_reach(stdout: str) -> None:
    """The oracle parses no text, so parse.py statements are listed, and
    every statement in the body of kernel_oracle runs."""
    header, *rows = stdout.splitlines()
    assert header.startswith("statements no timed op runs: oracle_sweep, seed 41: ")
    listed: dict[str, list[int]] = {}
    for row in rows:
        if row.startswith("src/"):
            current = listed.setdefault(row, [])
        else:
            current.append(int(row.split()[0]))
    assert listed["src/nagata/parse.py"]
    pde = ast.parse((ROOT / "src" / "nagata" / "pde.py").read_text())
    oracle, = [node for node in pde.body
               if isinstance(node, ast.FunctionDef) and node.name == "kernel_oracle"]
    body = range(oracle.body[1].lineno, oracle.end_lineno + 1)
    assert not [line for line in listed["src/nagata/pde.py"] if line in body]


def _tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for f in sorted(path.rglob("*.py")):
        digest.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()


def _mutation_sample():
    spec = importlib.util.spec_from_file_location(
        "mutation_sample", ROOT / "scripts" / "mutation_sample.py")
    sample = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sample)
    return sample


def test_mutation_sample_kills_a_fixed_mutant_outside_src():
    sample = _mutation_sample()
    path = Path("src", "nagata", "lojasiewicz.py")
    source = (ROOT / path).read_text()
    lines = source.splitlines()
    # the inverse-degree self-check, 2*deg(phi) + 1 -> 2*deg(phi) - 1
    mutant, = [m for m in sample.sites(path, source) if m.operator == "+ -> -"
               and "2 * phi_degree + 1" in lines[m.line - 1]]
    # the same site written back unchanged must survive, so the kill is the mutation's
    unchanged = dataclasses.replace(mutant, text="+")
    before = _tree_digest(ROOT / "src")
    results = list(sample.run([mutant, unchanged], ["tests/test_lojasiewicz.py"]))
    assert results == [(mutant, True), (unchanged, False)]
    assert _tree_digest(ROOT / "src") == before


def test_mutation_sample_tells_apart_two_sites_on_one_line():
    """kernel_oracle's monomial list holds range(d + 1) and range(d - a + 1);
    their two 1 -> 2 mutants print the column and the mutated line."""
    sample = _mutation_sample()
    path = Path("src", "nagata", "pde.py")
    source = (ROOT / path).read_text()
    lines = source.splitlines()
    first, second = [m for m in sample.sites(path, source) if m.operator == "1 -> 2"
                     and "for b in range(d - a + 1)" in lines[m.line - 1]]
    text = lines[first.line - 1]
    column = text.index("range(d + 1)") + len("range(d + ") + 1
    assert first.describe(source) == (
        f"{path}:{first.line}:{column} 1 -> 2  | "
        + text.strip().replace("range(d + 1)", "range(d + 2)"))
    assert second.describe(source).endswith("for b in range(d - a + 2)]")
    assert second.describe(source) != first.describe(source)


def test_mutation_sample_prints_the_source_it_sampled(tmp_path, monkeypatch, capsys):
    """A module edited while a sample runs: each printed line still comes
    from the source the sites were found in, not from the edited file."""
    sample = _mutation_sample()
    path = Path("src", "nagata", "lojasiewicz.py")
    source = (ROOT / path).read_text()
    module = tmp_path / path
    module.parent.mkdir(parents=True)
    module.write_text(source)
    edited = '"""A docstring that moves every line down."""\n\n' + source
    ran = []

    def run(mutants, tests):
        module.write_text(edited)
        for mutant in mutants:
            ran.append(mutant)
            yield mutant, True

    monkeypatch.setattr(sample, "ROOT", tmp_path)
    monkeypatch.setattr(sample, "run", run)
    assert sample.main(["--seed", "3", "--count", "5", "lojasiewicz"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(ran) == 5
    assert printed[:5] == [f"killed   {m.describe(source)}" for m in ran]
    assert [m.describe(edited) for m in ran] != [m.describe(source) for m in ran]
