"""dysaug: synthetic dysarthric speech and ASR evaluation tools.

Speed/tempo perturbation of healthy recordings at named severity levels,
manifest-driven batch generation, WER/CER scoring with error breakdown,
and confusion-weighted dictionary text correction.

`import dysaug` loads no submodule: each exported name imports its
module on first use (PEP 562), so the text half (align, score,
normalize_arabic, read_manifest) runs without loading numpy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each submodule and the names it exports
_SUBMODULES = {
    "audio_io": ("UnsupportedCodecError", "Waveform", "WavFormatError", "read_wav",
                 "resample", "resample_sequence", "write_wav"),
    "correction": ("Dictionary", "correct_sentence", "correct_word", "load_dictionary",
                   "profile", "weighted_jaccard"),
    "pipeline": ("SEVERITIES", "AugmentRecord", "BatchResult", "ManifestEntry",
                 "PerturbationParams", "assign_severities", "params_for", "read_manifest",
                 "run_batch", "split_by_gender", "write_records"),
    "scoring": ("Alignment", "ConfusionMatrix", "ScoreReport", "align", "build_confusion",
                "normalize_arabic", "score"),
    "speed": ("SPEED_FACTOR_RANGE", "perturb_speed"),
    "tempo": ("TEMPO_FACTOR_RANGE", "WsolaConfig", "perturb_tempo", "pertubate_signal"),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = [
    "AugmentRecord",
    "Alignment",
    "BatchResult",
    "ConfusionMatrix",
    "Dictionary",
    "ManifestEntry",
    "PerturbationParams",
    "SEVERITIES",
    "SPEED_FACTOR_RANGE",
    "ScoreReport",
    "TEMPO_FACTOR_RANGE",
    "UnsupportedCodecError",
    "Waveform",
    "WavFormatError",
    "WsolaConfig",
    "align",
    "assign_severities",
    "build_confusion",
    "correct_sentence",
    "correct_word",
    "load_dictionary",
    "normalize_arabic",
    "params_for",
    "perturb_speed",
    "perturb_tempo",
    "pertubate_signal",
    "profile",
    "read_manifest",
    "read_wav",
    "resample",
    "resample_sequence",
    "run_batch",
    "score",
    "split_by_gender",
    "weighted_jaccard",
    "write_records",
    "write_wav",
]


def __getattr__(name: str):
    # only names not yet in the package globals get here; the first use of
    # an export imports its module and binds the name, so later uses are
    # plain attribute reads.  Anything else, a submodule not yet imported
    # included, is an AttributeError, which lets `from dysaug import scoring`
    # import it.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
