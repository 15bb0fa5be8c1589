"""A fixed sample of the CLI equivalence matrix (cli_matrix.py); CI runs
every case with `python tests/cli_matrix.py`."""

import random

import cli_matrix

SAMPLE_SIZE = 100


def test_golden_names_every_case_once():
    ids = [case_id for case_id, _, _ in cli_matrix.cases()]
    assert len(ids) >= 250
    assert sorted(ids) == sorted(set(ids)) == sorted(cli_matrix.load())


def test_cli_matrix_sample():
    golden = cli_matrix.load()
    sample = random.Random(36).sample(cli_matrix.cases(), SAMPLE_SIZE)
    moved = [case_id for case_id, argv, catalog in sample
             if cli_matrix.run(argv, catalog) != golden[case_id]]
    assert not moved
