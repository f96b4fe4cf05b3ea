"""Record ``reference.json`` from the program as it stands.

Run from the root of a checkout, at a commit whose reports are trusted:

    python3 bench/record_reference.py

It stores, for the default seed, the digest and exit code of every report
of every workload; the epsilon lengths of every exponent vector of the
powers_3d4d workload; and the lemma-4 grid constant of every
ideal in the lemmas pool.  The benchmark checks reports against them.
"""

from __future__ import annotations

import json

import checks
import run
import workloads


def main() -> None:
    program = run.load_program()
    clock = run.HostClock()
    reference = {"seed": workloads.DEFAULT_SEED, "digests": {}, "epsilon_lengths": {}, "lemmas_grid_c": {}}
    for dim, nmax, shape, vectors in (
        (3, workloads.NMAX3, workloads.shape3, workloads.TRIPLES),
        (4, workloads.NMAX4, workloads.shape4, workloads.QUADS),
    ):
        for exps in vectors:
            argv = ("epsilon", "-i", workloads.ideal_json(dim, shape(*exps)), "--nmax", str(nmax))
            result = run.execute(program, workloads.Op("epsilon", "epsilon", argv), clock)
            if result.code != 0:
                raise SystemExit(f"epsilon failed on {exps}: {result.code}")
            rows = result.stdout.splitlines()[2:]
            reference["epsilon_lengths"][checks.exponent_key(dim, exps)] = [int(r.split(",")[1]) for r in rows]
    for name in workloads.WORKLOADS:
        ops = workloads.make_ops(name, workloads.DEFAULT_SEED)
        results = [run.execute(program, op, clock) for op in ops]
        reference["digests"][name] = {
            op.name: {"sha256": checks.digest(r.stdout, r.code), "exit": r.code} for op, r in zip(ops, results)
        }
        if name == "lemmas_corpus":
            for op, r in zip(ops, results):
                c = r.stdout.splitlines()[2].split(",")[3]
                reference["lemmas_grid_c"][str(op.meta["pool_index"])] = None if c == "none" else int(c)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
