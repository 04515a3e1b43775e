"""Experiment configuration: line-oriented ``key = value`` sections.

Values are taken literally: ``%`` is an ordinary character, not
interpolation syntax. A file that is not a valid config (no section header,
a key given twice, bytes that are not UTF-8) raises ConfigError.

Relative data paths in a config file are resolved against the file's
directory, so a config can live next to its corpus. ``write_config`` writes
them absolute, taking relative ones against the working directory, so a
written config, such as the echo in each run directory, reparses to an
identical record wherever it lies.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from math import inf
from pathlib import Path

from . import mlp
from .errors import ArgumentError, ConfigError

SYSTEMS = ("ult2wav", "txt2wav", "txt+ult2wav")

_AT_LEAST_ONE = (
    "resize_rows", "resize_cols", "max_components", "mgc_dim", "bap_dim",
    "hidden_layers", "hidden_units",
)


@dataclass(frozen=True)
class ExperimentConfig:
    ultrasound_dir: Path
    label_dir: Path
    acoustic_dir: Path
    question_file: Path
    speaker: str = "spk"
    system: str = "txt+ult2wav"
    seed: int = 1
    train_ratio: float = 0.85
    dev_ratio: float = 0.10
    test_ratio: float = 0.05
    resize_rows: int = 64
    resize_cols: int = 128
    variance_target: float = 0.70
    max_components: int = 128
    frame_shift: float = 0.005
    mgc_dim: int = 60
    bap_dim: int = 5
    hidden_layers: int = 6
    hidden_units: int = 1024
    max_epochs: int = 25
    warmup_epochs: int = 10
    base_lr: float = 0.002
    lr_decay: float = 0.5
    batch_size: int = 256
    patience: int = 5

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ConfigError(f"unknown system {self.system!r}, expected one of {SYSTEMS}")
        # written so that NaN fails too
        if not all(r >= 0 for r in self.ratios):
            raise ConfigError(f"split ratios must not be negative or NaN, got {self.ratios}")
        total = self.train_ratio + self.dev_ratio + self.test_ratio
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must sum to 1, got {total}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in _AT_LEAST_ONE:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # written so that NaN fails too
        if not 0 < self.variance_target <= 1:
            raise ConfigError(f"variance_target must be in (0, 1], got {self.variance_target}")
        if not 0 < self.frame_shift < inf:
            raise ConfigError(f"frame_shift must be finite and > 0, got {self.frame_shift}")
        try:
            self.schedule
        except ArgumentError as e:
            raise ConfigError(str(e)) from e

    @property
    def schedule(self) -> mlp.TrainingSchedule:
        """The SGD schedule of the [training] section, checked at construction."""
        return mlp.TrainingSchedule(
            max_epochs=self.max_epochs,
            warmup_epochs=self.warmup_epochs,
            base_lr=self.base_lr,
            decay=self.lr_decay,
            batch_size=self.batch_size,
            patience=self.patience,
            seed=self.seed,
        )

    @property
    def ratios(self) -> tuple[float, float, float]:
        return (self.train_ratio, self.dev_ratio, self.test_ratio)

    # The system's input recipe: these two properties are the only code that
    # reads meaning into a system name.
    @property
    def reads_questions(self) -> bool:
        """Whether the linguistic input answers the question set; ult2wav's
        holds only the 4 positional features."""
        return self.system != "ult2wav"

    @property
    def reads_ultrasound(self) -> bool:
        """Whether the input appends the eigentongue PCA coefficients."""
        return self.system != "txt2wav"


_SCHEMA = {
    "data": {
        "ultrasound_dir": ("ultrasound_dir", Path),
        "label_dir": ("label_dir", Path),
        "acoustic_dir": ("acoustic_dir", Path),
        "question_file": ("question_file", Path),
    },
    "experiment": {
        "speaker": ("speaker", str),
        "system": ("system", str),
        "seed": ("seed", int),
    },
    "split": {
        "train": ("train_ratio", float),
        "dev": ("dev_ratio", float),
        "test": ("test_ratio", float),
    },
    "ultrasound": {
        "resize_rows": ("resize_rows", int),
        "resize_cols": ("resize_cols", int),
    },
    "pca": {
        "variance_target": ("variance_target", float),
        "max_components": ("max_components", int),
    },
    "acoustic": {
        "frame_shift": ("frame_shift", float),
        "mgc_dim": ("mgc_dim", int),
        "bap_dim": ("bap_dim", int),
    },
    "network": {
        "hidden_layers": ("hidden_layers", int),
        "hidden_units": ("hidden_units", int),
    },
    "training": {
        "max_epochs": ("max_epochs", int),
        "warmup_epochs": ("warmup_epochs", int),
        "base_lr": ("base_lr", float),
        "lr_decay": ("lr_decay", float),
        "batch_size": ("batch_size", int),
        "patience": ("patience", int),
    },
}

PATH_FIELDS = ("ultrasound_dir", "label_dir", "acoustic_dir", "question_file")


def read_config(path: Path) -> ExperimentConfig:
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"malformed config file {path}: {e}") from e
    if not found:
        raise ConfigError(f"cannot read config file {path}")
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field, cast = _SCHEMA[section][key]
            try:
                values[field] = cast(raw)
            except ValueError as e:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from e
    missing = [k for k in PATH_FIELDS if k not in values]
    if missing:
        raise ConfigError(f"config misses required data paths: {missing}")
    base = path.resolve().parent
    for field in PATH_FIELDS:
        p = values[field]
        values[field] = p if p.is_absolute() else (base / p).resolve()
    try:
        return ExperimentConfig(**values)
    except TypeError as e:
        raise ConfigError(str(e)) from e


def write_config(cfg: ExperimentConfig, path: Path) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SCHEMA.items():
        parser.add_section(section)
        for key, (field, _) in keys.items():
            value = getattr(cfg, field)
            parser.set(section, key, str(Path(value).absolute() if field in PATH_FIELDS else value))
    with open(path, "w") as fh:
        parser.write(fh)
