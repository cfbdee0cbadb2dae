"""Experiment configuration.

A small INI dialect: one [run] section with the six keys of `_RUN_KEYS`,
one [representation] section, parsed straight into a
`reps.Representation`, and any number of [test_function.NAME] sections,
each parsed straight into an `analysis.TestFunction`.  Bad input fails at
load, before any enumeration or solve.
"""

from __future__ import annotations

import configparser
import json
import re
from dataclasses import dataclass

from .. import TRUST_DIVISOR
from ..analysis import TestFunction
from ..errors import ConfigError, RelatorViolation, SingularImage
from ..fuchsian import L_MAX_CAP
from ..reps import Representation, character_rep, rep_from_json

_PRESETS = ("bolza",)
_REP_KEYS = {"character": "values", "file": "path"}  # kind -> its one key

_RUN_KEYS = {  # key -> converter of its value
    "preset": str.strip,
    "L_max": float,
    "level": int,
    "count": int,
    "threshold": float,
    "out_dir": str.strip,
}
_TF_PREFIX = "test_function."


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str = "bolza"
    L_max: float = 6.0
    level: int = 4
    count: int = 250
    threshold: float = 0.05
    out_dir: str = "runs"
    rep_kind: str = "character"  # provenance label for the outputs
    representation: Representation = character_rep((1, 1, 1, 1))
    test_functions: tuple = (("main", TestFunction(T=4.0, k=2)),)  # (name, f)

    @property
    def advisory_short_window(self) -> bool:
        """True when some test function looks past the enumerated lengths."""
        return self.L_max < max(f.T for _, f in self.test_functions)


def _complex_of(s: str, where: str) -> complex:
    try:
        return complex(s.strip())
    except ValueError:
        raise ConfigError("%s: cannot parse %r as a complex number" % (where, s))


def _representation(sec) -> tuple:
    """(kind, Representation) from a [representation] section.

    A file path is taken relative to the working directory.
    """
    kind = sec.get("kind", "character").strip()
    if kind not in _REP_KEYS:
        raise ConfigError("[representation] kind must be one of %s, got %r"
                          % (tuple(_REP_KEYS), kind))
    for key in sec:
        if key not in ("kind", _REP_KEYS[kind]):
            raise ConfigError("unknown key %r in [representation] of kind %s"
                              % (key, kind))
    if kind == "character":
        where = "[representation]"
        vals = [_complex_of(s, "[representation] values")
                for s in sec.get("values", "1, 1, 1, 1").split(",")]
    elif "path" not in sec:
        raise ConfigError("[representation] of kind file needs a path")
    else:
        path = sec["path"].strip()
        where = "[representation] path %s" % path
    try:
        if kind == "character":
            return kind, character_rep(vals)
        with open(path) as fh:
            return kind, rep_from_json(json.load(fh))
    except (OSError, ValueError, TypeError, SingularImage,
            RelatorViolation) as exc:
        raise ConfigError("%s: %s" % (where, exc))


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.preset not in _PRESETS:
        raise ConfigError("unknown preset %r" % cfg.preset)
    if not 0.0 < cfg.L_max <= L_MAX_CAP:
        raise ConfigError(
            "L_max must lie in (0, %g], got %g: longer cutoffs need exact "
            "word arithmetic (ROADMAP item 2)" % (L_MAX_CAP, cfg.L_max)
        )
    if not 0 <= cfg.level <= 7:
        raise ConfigError("level must lie in [0, 7], got %d" % cfg.level)
    # the glued level-L mesh has 4^(L+1) - 2 free vertices, d dofs each
    n_free = cfg.representation.dim * (4 ** (cfg.level + 1) - 2)
    limit = n_free // TRUST_DIVISOR
    if not 1 <= cfg.count <= limit:
        raise ConfigError("count must lie in [1, N_free/4 = %d] at level %d, "
                          "got %d" % (limit, cfg.level, cfg.count))
    if not 0.0 < cfg.threshold <= 1.0:
        raise ConfigError("threshold must lie in (0, 1]")
    if not cfg.test_functions:
        raise ConfigError("at least one [test_function.NAME] section required")
    return cfg


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("malformed config: %s" % exc)

    kw = {}
    if cp.has_section("run"):
        for key, value in cp["run"].items():
            if key not in _RUN_KEYS:
                raise ConfigError("unknown [run] key %r" % key)
            try:
                kw[key] = _RUN_KEYS[key](value)
            except ValueError as exc:
                raise ConfigError("[run] %s: %s" % (key, exc))

    if cp.has_section("representation"):
        kw["rep_kind"], kw["representation"] = _representation(
            cp["representation"]
        )

    tfs = []
    for section in cp.sections():
        if section in ("run", "representation"):
            continue
        if not section.startswith(_TF_PREFIX):
            raise ConfigError("unknown section [%s]" % section)
        name = section[len(_TF_PREFIX):]
        if not re.fullmatch(r"[A-Za-z0-9_-]+", name):  # it names output files
            raise ConfigError("[%s]: a test-function name takes only letters, "
                              "digits, '_' and '-'" % section)
        body = cp[section]
        for key in body:
            if key not in ("T", "k"):
                raise ConfigError("unknown key %r in [%s]" % (key, section))
        if "T" not in body:
            raise ConfigError("[%s] needs T" % section)
        try:
            f = TestFunction(T=float(body["T"]), k=int(body.get("k", "1")))
        except ValueError as exc:
            raise ConfigError("[%s]: %s" % (section, exc))
        tfs.append((name, f))
    if tfs:
        kw["test_functions"] = tuple(tfs)

    try:
        cfg = ExperimentConfig(**kw)
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad config value: %s" % exc)
    return validate(cfg)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config file %s: %s" % (path, exc))
    return parse_config(text)
