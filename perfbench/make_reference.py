"""Write ``reference.json``: per-item output digests of the default seed.

    python3 perfbench/make_reference.py

Runs one untraced pass of every workload on the default seed and records,
per item, the raw and canonical digests of its output JSON (see
``check.py``).  Corpus items must match their ``CorpusEntry.expected``
values first.  The reference is regenerated only when the program's outputs
are meant to change, which the corpus's byte-identity rule forbids for a
performance change.
"""

import json
import os
import shutil
import sys

import check
import run
import workloads


def main():
    sys.path.insert(0, run.SRC)
    from arithdeg.corpus import build_corpus
    entries = {e.identifier: e for e in build_corpus()}
    reference = {}
    os.makedirs(run.WORK, exist_ok=True)
    for workload in workloads.WORKLOADS:
        pass_dir = os.path.join(run.WORK, "reference-%s" % workload)
        shutil.rmtree(pass_dir, ignore_errors=True)
        os.makedirs(pass_dir)
        result = run.run_child(workload, workloads.DEFAULT_SEED, 0, pass_dir)
        digests = {}
        for index, item in enumerate(result.items):
            if result.codes.get(index) != 0:
                raise SystemExit("%s: exit code %r" % (item.ident, result.codes.get(index)))
            with open(os.path.join(pass_dir, "%03d.json" % index), "rb") as fh:
                raw = fh.read()
            if item.corpus_id:
                problems = check.corpus_problems(json.loads(raw), entries[item.corpus_id])
                if problems:
                    raise SystemExit("%s: %s" % (item.ident, "; ".join(problems)))
            raw_digest, canonical_digest = check.digests(raw, item.scales)
            digests[item.ident] = {"raw": raw_digest, "canonical": canonical_digest}
        shutil.rmtree(pass_dir)
        reference[workload] = dict(sorted(digests.items()))
        print("%s: %d items, pass %.2f s" % (workload, len(result.items), result.wall_s))
    with open(run.REFERENCE, "w") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "digests": reference}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
