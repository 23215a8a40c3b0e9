"""Record ``data/goldens.json``; with ``--freeze-corpus`` also rewrite
``data/corpus.rmd``.

    python3 bench/record_goldens.py [--freeze-corpus]

The goldens pin what the measured code outputs: trace file digests,
census, final frames, per-tick frame digests of the eggs reference run,
and each corpus model's diagnostics and printed form.  Re-record them
only in a change that means to alter one of those outputs.

``--freeze-corpus`` prints ``tests/modelgen.py`` models 0 to 599 in
canonical form; the benchmark itself never imports the generator, so the
corpus stays fixed when the generator changes.  The workload seed picks
the sample from these.
"""
from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from remodyc import interp, memory, parser, rng  # noqa: E402

import workloads as w  # noqa: E402

CORPUS_MODELS = range(600)


def freeze_corpus() -> None:
    sys.path.insert(0, str(ROOT))
    from tests.modelgen import generate_model

    chunks = []
    for n in CORPUS_MODELS:
        text = parser.pretty_print(generate_model(n))
        if parser.pretty_print(parser.parse_model(text)) != text:
            raise SystemExit(f"model {n} does not survive a print round trip")
        chunks.append(f"# model {n}\n{text}")
    (w.DATA / "corpus.rmd").write_text("".join(chunks))


def reference_ticks() -> list[list]:
    """Per stored tick of the eggs reference run: frame digest, then the
    draws and activations of the step that starts from it."""
    model = parser.parse_model((w.MODELS / "eggs.rmd").read_text())
    config = interp.parse_config((w.MODELS / "eggs.cfg").read_text())
    backend = memory.InMemoryBackend()
    interp.Engine(model, config, backend).run()
    frames = backend.frames
    ticks = []
    for frame, following in zip(frames, frames[1:] + [None]):
        draws = rng.draws_between(frame.rng_state, following.rng_state) if following else 0
        work = w.activations(model, frame) if following else 0
        ticks.append([w.frame_digest(frame), draws, work])
    return ticks


def run_golden(workload) -> dict:
    state = workload.setup()
    try:
        result = workload.run_pass(state)
    finally:
        workload.discard(state)
    return {"outputs": result.observed, "counts": result.counts}


def main() -> None:
    arguments = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    arguments.add_argument("--freeze-corpus", action="store_true")
    args = arguments.parse_args()
    if args.freeze_corpus:
        freeze_corpus()

    work = w.WorkDir()
    try:
        goldens = {
            "recorded_with": f"Python {platform.python_version()}",
            "eggs_file": run_golden(w.RunWorkload(
                "eggs_file", w.MODELS / "eggs.rmd", w.MODELS / "eggs.cfg", True, work, None
            )),
            "eggs_large_mem": run_golden(w.RunWorkload(
                "eggs_large_mem", w.MODELS / "eggs.rmd", w.DATA / "large.cfg", False, work, None
            )),
            "reference_ticks": reference_ticks(),
        }
    finally:
        work.close()
    everything = sum(1 for key, _ in w.read_corpus() if key.startswith("gen:"))
    corpus = w.CorpusWorkload(0, {}, sample=everything)
    goldens["corpus"] = corpus.run_pass(corpus.setup()).observed
    (w.DATA / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
