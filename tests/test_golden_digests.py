"""Byte-for-byte regression test of the harness outputs.

A fixed spec set runs through the INI parser and ``run_experiment``, and
the sha256 of every CSV it writes is compared with a pinned value and
with the digests its manifest lists.  The set
covers all four experiment kinds, all four schemes, all three
references, both rank policies, the linear-drift shortcut, the debug
identities and failing cells (``dlr_em`` collapsing on
``toy_example_3``; the rank-deficient ``sadr_model`` start under the
``abort`` policy).  A refactor that keeps the numerical behaviour keeps
these digests; a change that alters an output on purpose re-pins them
and says why.

The digests were taken with Python 3.11, NumPy 2.4 and OpenBLAS 0.3 on
x86-64; another BLAS build may round differently.
"""

import hashlib
import json
import os
import re

import pytest

from lowrank_sde.harness import load_specs, run_experiment

SPECS = """
[toy2_conv]
kind = convergence
model = toy_example_2
schemes = em, dlr_em, dlr_ps_em, dlr_ps_sde
rank = 2
paths = 200
seed = 31
t_final = 1.0
dt = 0.1, 0.05, 0.025
reference = em_fine
fine_factor = 4
linear_fast_path = true
debug_identities = true

[toy3_fail]
kind = convergence
model = toy_example_3
schemes = dlr_em, dlr_ps_sde
rank = 2
paths = 300
seed = 32
t_final = 10.0
dt = 0.1, 0.05
reference = dlr_ps_sde_fine
fine_factor = 4

[gbm_exact]
kind = convergence
model = gbm_oracle
schemes = em
rank = 1
paths = 200
seed = 33
t_final = 1.0
dt = 0.1, 0.05, 0.025
reference = exact
fine_factor = 1

[sadr_sv]
kind = singular_values
model = sadr_model
schemes = dlr_em, dlr_ps_em, dlr_ps_sde
rank = 14
paths = 200
seed = 34
t_final = 0.5
dt = 0.05, 0.025
rank_policy = svd

[stab]
kind = stability
model = stability_model
schemes = dlr_em, dlr_ps_em, dlr_ps_sde
rank = 4
paths = 200
seed = 35
t_final = 2.0
dt = 0.1, 0.05

[sadr_stab]
kind = stability
model = sadr_model
schemes = dlr_em, dlr_ps_em, dlr_ps_sde
rank = 14
paths = 100
seed = 36
t_final = 1.0
dt = 0.1
rank_policy = abort

[toy1_single]
kind = single_run
model = toy_example_1
schemes = dlr_em
rank = 2
paths = 200
seed = 37
t_final = 1.0
dt = 0.05
snapshot_times = 0.5, 1.0
"""

GOLDEN = {
    "gbm_exact": {
        "errors_em_vs_exact.csv":
            "dc4408eacfea60c6b95ad921a722c452fcf2fc43cd1cbc7cf5db3dec6d8d06d0",
        "slopes.csv":
            "ba98ea88c4e0a225647f660e8d31b22fdf27c9232701b1c30a61ed3dd3f936fb",
        "status.csv":
            "868b08c27b4abe93beb626e20fe5d666fbd842bbccc5b72cdeed97a03a4e6344",
    },
    "sadr_stab": {
        # every cell fails at step 0, so each classifies "failed"
        "classification.csv":
            "f4b27fdf128540b827cee2e9129739e4e3be07b499fa6ad4a5150f36965b96ab",
        "norms_dlr_em_dt0.1.csv":
            "c4839ef7d7ad0bd5a54dc6c89d14995e45f61a9cb22b9b7b402a1734ff7125ff",
        "norms_dlr_ps_em_dt0.1.csv":
            "c4839ef7d7ad0bd5a54dc6c89d14995e45f61a9cb22b9b7b402a1734ff7125ff",
        "norms_dlr_ps_sde_dt0.1.csv":
            "c4839ef7d7ad0bd5a54dc6c89d14995e45f61a9cb22b9b7b402a1734ff7125ff",
    },
    "sadr_sv": {
        "singular_values_dlr_em_dt0.025.csv":
            "65a692dade0cf5d0566a7ba13027edc4f2abbd2034644406dafd3a308542e357",
        "singular_values_dlr_em_dt0.05.csv":
            "80e525b740cb10f76dad748042a896493c9b2b3d157189564144aaad87e419b4",
        "singular_values_dlr_ps_em_dt0.025.csv":
            "bb1526207d63fc4f63be1eed1dc819cc3f7904a9f6ecb024ae454bdf0512375a",
        "singular_values_dlr_ps_em_dt0.05.csv":
            "c9688c42d30b3b8b91d7742d0c96f7d83930f89a3eb04683b47176dbd73c09b3",
        "singular_values_dlr_ps_sde_dt0.025.csv":
            "020e07ca3a0a6cc0c55933e4dfb1717c6965db530c0226ee274e48882f02394a",
        "singular_values_dlr_ps_sde_dt0.05.csv":
            "7a68dcc6f820a98d8d76931308e481d681ac4ed6aa9390e08330bb356bce69a1",
        "violations.csv":
            "97d961df5a0b0a7f410b6a51fd61cd58b8a848eee35965b037a40be979341fd1",
    },
    "stab": {
        "classification.csv":
            "653242aaa3713b60f23b2aae126a075d5837e07e47e34a26d77a05859cbeca6b",
        "norms_dlr_em_dt0.05.csv":
            "1fa76e91ca3de11267d8522ee8376a75d323b5f8c8c701ee699bdba8df579709",
        "norms_dlr_em_dt0.1.csv":
            "c0d7acd45ba9e9eae15634515e931af0e72a80ab4c88a0c546035b4086902830",
        "norms_dlr_ps_em_dt0.05.csv":
            "1e578618187ac3fb9986c3b9d30a8a4f415a9b3220f5184c4dd35dc2baeee7f8",
        "norms_dlr_ps_em_dt0.1.csv":
            "b82b00a915a035b626539802847d23b28f83f76c6583a80b891d32a7b5d96059",
        "norms_dlr_ps_sde_dt0.05.csv":
            "0bbd06feacf666fae9dfddc28d5ea51c877cfb7f07c08cb7ced54c4b47fa3e40",
        "norms_dlr_ps_sde_dt0.1.csv":
            "c499e55845a7f7b9e41de0ce9a41fa1ea341fe94b4f929a502f60aa50af4d5d5",
    },
    "toy1_single": {
        "snapshot_t0.5.csv":
            "0d211b5e58814bd6f62cdc8a52c001c7041d4513de462797675d268f518fe29a",
        "snapshot_t1.csv":
            "1cfa07a9a33f8afd364f4cd425fe8616d66201830c1c71b094dd5015f284d503",
        "trace.csv":
            "7825fa35d2f8ee82c52ed25e508951ad5d951a62277783ae671476e7a2b715b6",
    },
    "toy2_conv": {
        "errors_dlr_em_vs_dlr_ps_sde_fine.csv":
            "7727a76512c7f6b6de1446ed0d12328c66e416f708b6f2e45a0b8408ac34fe2a",
        "errors_dlr_em_vs_em_fine.csv":
            "9b73ca908e776f6fd79a58c3593fa60abe11cf80f3433b084b8844175b380362",
        "errors_dlr_ps_em_vs_dlr_ps_sde_fine.csv":
            "ccb196034af2308daaca9c12c2499cf4fe354e93a514c73e35f6b641160eac1b",
        "errors_dlr_ps_em_vs_em_fine.csv":
            "1022afbc9662fb48db1a15275d0f57af7ba0922c442605d0ea9bf1090de509f5",
        "errors_dlr_ps_sde_vs_dlr_ps_sde_fine.csv":
            "e386e32faf8f095f6dbf2aead9b8a95967fc09c3b5a39f0185606ec9a73b1a87",
        "errors_dlr_ps_sde_vs_em_fine.csv":
            "ac3583e35d989766e23480c486fcb8041751e503acfe732ca142f89f528644d8",
        "errors_em_vs_dlr_ps_sde_fine.csv":
            "be96827725fde99ab6bc99a5f7ed13365acb16c732f81b72bf7b3c09c15d50d8",
        "errors_em_vs_em_fine.csv":
            "f379c4aa061136ab623b61d0766e9fb2fc1c5edda214448c4ac825c7c80725c5",
        "slopes.csv":
            "0cf59bde096775569666cc5f2b4bf9b05bb3166833da31f81a635877f25b34df",
        "status.csv":
            "8cd93bb6c9ee181551f48f721e1001a4575228bbf05695b5eef52baadcfbc98b",
    },
    "toy3_fail": {
        "errors_dlr_em_vs_dlr_ps_sde_fine.csv":
            "490c83fe1c14e1b05374024487455bdee1f1e57ecfd72ac4d923ae417eba05d1",
        "errors_dlr_em_vs_em_fine.csv":
            "490c83fe1c14e1b05374024487455bdee1f1e57ecfd72ac4d923ae417eba05d1",
        "errors_dlr_ps_sde_vs_dlr_ps_sde_fine.csv":
            "136efe67c3ea27d3172511e1aaab1eaeca87f669c3314f0fc9f45631c948a5f4",
        "errors_dlr_ps_sde_vs_em_fine.csv":
            "1b2a869400a4df8d009854483f96cc4fc91de687c420d46d2ad6c34972fd4473",
        "slopes.csv":
            "ac25d99a0d97d6c1bfe3b97000cc605ced40fff3648adc4260880105e1abd3c6",
        "status.csv":
            "cc5c62d9b369582b9a844c566a60ff21c07b2e5b30dea35f2531ef779a486bd9",
    },
}


def _csv_digests(directory):
    digests = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".csv"):
            with open(os.path.join(directory, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    text = re.sub(r"^\[(\w+)\]$",
                  lambda m: "%s\noutput_dir = %s" % (m.group(0),
                                                     root / m.group(1)),
                  SPECS, flags=re.M)
    path = root / "golden.ini"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("section", sorted(GOLDEN))
def test_csv_digests_match_pinned(spec_file, section):
    spec = {s.name: s for s in load_specs(spec_file)}[section]
    run_experiment(spec)
    digests = _csv_digests(spec.output_dir)
    assert digests == GOLDEN[section]
    # the manifest lists every file the run wrote, with its digest
    with open(os.path.join(spec.output_dir, "manifest.json")) as fh:
        assert json.load(fh)["outputs"] == digests
