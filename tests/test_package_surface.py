"""src/vlafp holds only what the product calls.

Every top-level function and class of a package module must be read
somewhere outside its own body: by a name, an attribute or a string
constant that is exactly its identifier (segment() looks segmenters up by
name, and the benchmark's tracer names its patch sites so), in a package
module other than __init__.py, in scripts/ or in bench/. Tests do not
count as readers: a reference implementation that only tests call lives in
tests/oracles.py.

vlafp.autodiff is exempt while bench/tracing.py patches its
Tensor.backward.

The settable values, the fields of the five config classes, are pinned
here, so a new setting is a visible edit of SETTINGS; each subcommand's
flags are pinned likewise in FLAGS.
"""

import argparse
import ast
from dataclasses import fields
from pathlib import Path

from vlafp.augment import AugmentConfig
from vlafp.cli import build_parser
from vlafp.dsp import MelConfig
from vlafp.model import ModelConfig
from vlafp.segmentation import SegmenterConfig
from vlafp.training import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vlafp"
EXEMPT = ("__init__.py", "autodiff.py")

SETTINGS = {
    SegmenterConfig: ("t_min", "t_max", "theta", "method", "window_s", "hop_s"),
    MelConfig: ("n_mels",),
    ModelConfig: ("f_bins", "d", "n_blocks", "n_heads", "d_head", "ffn_alpha"),
    TrainConfig: ("tau", "batch_items", "n_pos", "lr", "epochs", "seed"),
    AugmentConfig: ("enable_ts", "ts_range", "snr_range_db", "bg_pool", "ir_pool"),
}

SEGMENTATION = ("--method", "--theta", "--tmin", "--tmax", "--window", "--hop")
MODEL = ("--mel-bands", "--dim", "--blocks", "--heads", "--dhead", "--alpha")
AUG = ("--aug", "--snr", "--ts", "--bg-dir", "--ir-dir")
FLAGS = {
    "synth": ("--n", "--dur", "--recipe", "--out", "--seed", "--rate"),
    "segment": ("--audio", "--out", *SEGMENTATION, "--rate"),
    "train": (
        "--corpus", "--epochs", "--lr", "--tau", "--npos", "--batch", "--out", *SEGMENTATION, *MODEL, *AUG,
        "--seed", "--rate",
    ),
    "fingerprint": ("--audio", "--ckpt", "--out", *SEGMENTATION, "--rate"),
    "index build": ("--fingerprints", "--out"),
    "index query": ("--idx", "--fingerprints", "--k"),
    "eval cbr": ("--audio", "--ckpt", "--commercial-id", "--others", "--out", *SEGMENTATION, *AUG, "--seed", "--rate"),
    "eval dtr": (
        "--audio", "--ckpt", "--durations", "--targets", "--dummies", "--queries-per-target", "--out",
        "--window", "--hop", *AUG, "--seed", "--rate",
    ),
    "init": ("--out", *MODEL, "--seed"),
    "inspect": ("path",),
}


def readers() -> list[Path]:
    package = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return package + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def references(tree: ast.AST):
    """(identifier, line) of every name read, attribute read and identifier-like string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno


def unread_definitions() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in readers()}
    read: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in references(tree):
            read.setdefault(name, []).append((path, line))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT:
            continue
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            outside = [
                (where, line)
                for where, line in read.get(node.name, [])
                if not (where == path and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                unread.append(f"{path.stem}.{node.name}")
    return unread


def test_every_definition_has_a_reader_outside_tests():
    assert unread_definitions() == []


def test_settable_values_are_pinned():
    assert {cls: tuple(f.name for f in fields(cls)) for cls in SETTINGS} == SETTINGS


def subcommand_flags(parser: argparse.ArgumentParser, command: str = "") -> dict[str, tuple[str, ...]]:
    """Each leaf subcommand's flags (a positional by its dest) in declaration order, help aside."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        names = [s for a in parser._actions for s in (a.option_strings or [a.dest])]
        return {command: tuple(s for s in names if s not in ("-h", "--help"))}
    out = {}
    for name, sub in subparsers[0].choices.items():
        out.update(subcommand_flags(sub, f"{command} {name}".strip()))
    return out


def test_every_subcommand_flag_is_pinned():
    assert subcommand_flags(build_parser()) == FLAGS
