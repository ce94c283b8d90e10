"""Byte-identity guard: default-seed reports of fast claims must not move.

The digests are sha256 of ``json.dumps(report, sort_keys=True)`` for
``verify_claim`` at the default seed.  They cover claims whose chains are
certified by tightness bounds, inherited from stabilizer computations
(relabeled chain suffixes or sifted Schreier generators) or conjugated, or
built from certified literals (rows 9-13), so a performance change
that alters what a report says fails here.  A deliberate behaviour change must update a digest and say which
report keys moved.
"""

import hashlib
import json

import pytest

from grpfact.catalog import load_catalog
from grpfact.factorize import verify_claim

DIGESTS = {
    "t1r01-sl-a2b2q2": "41e513ab3c8494288970dee95ff3563e6f7682d4664f3d7a49d8b75da447512a",
    "t1r01-sp-a4b1q2": "3287d8e49e3969b3a5c9ee677d873f2b8244764df927f72ad8b5c642c9a6338d",
    "t1r03-n4q2": "a75b84b1ca007dd4d4a060d7e63908f20d7f8feed3082285937e7d0f54d7d41d",
    "t1r04-m2": "0c00089eda0e364d2bd203541854d39bc61bf77a2e967b386a0f7cf252ad9bab",
    "t1r04-sp-m4": "fb87ef72ce2640a6df245508710fa2e41b3d86c939b5a88cf554fa1c1f2e39ca",
    "t1r06-m2": "c5afa2049c9e9c7c346e4f156b72059ab1056de9df92dfaa296ee26f9b4eead4",
    "t1r07-m2": "026b4ef7c08a6505e5c515e55447eafe3c7c346cc5c6cefac49386c334bdacc2",
    "t1r08-q4-sp": "dc9305d00ae7f960dcbe3a2e10bb68928c7da8d879cdb7b4718ad520f0a7e1d9",
    # row 9's literals A5_FIRST and A5_SECOND
    "t1r09": "5c519e52c1d84e09d6e41dc6e10fac5f4e106c42bed8e9a1aab0b7188bfd5db6",
    # row 10's literals PGL2_7 and M10 in the phi_gamma extension
    "t1r10": "cbb82e83505d8ec04e2f0ab267025ab2a568bd170e9fb0f7fa817f934e306f10",
    # row 11's literal A7
    "t1r11-a": "8f70e82e6d65173066b2c5c2ba6c973757038c6064c4cdd701924b95492900d4",
    "t1r11-b": "4aaaebe6c82d09b7a98de94073ab8b3ebaa5630101985a3cf834862211951567",
    # row 12b's literal SL2_5, blown up to 4 x A5
    "t1r12-b": "735cb76ede8af78992cb79cd020aa7f601aeddebeb1802bf1e54e2e00efe2b13",
    "t1r13": "86a6fdd6cce5c94fa9db771378848eee6f27d5d492d1fcd427b88532ce76e37c",
    # the suites vote on conjugation alone
    "suite-r1": "1019e1089d075d70b49fdeeff266017669a7911ca05b9a009617ba19132ccb54",
    # row 9's literals A5_FIRST and A5_SECOND
    "suite-r9": "a919d70883eac3d03c8beaceee2a92468bba6d0e39d03e9f06fb830c150b5ad8",
    # the enumerate_smaller path (t1r08-sp-q2, neg-sp6-g2p) and the rest of the desk grid
    "t1r08-sp-q2": "04d411fc442d4698917bc3ee6e9663bb2bca4f8dd3ad9975178072a82edde5b1",
    "neg-sp6-g2p": "a90ce4cc23a3d1946352f84e315ab53d09fe081ef40e812bb30afbaac276f40f",
    "t1r01-sp-a4b1q3": "a8c976339a36703d13e0ffcfceb1f4d62a5683cb1e744a0e6125860f642d51d7",
    "t1r02-b1q2": "2961b8a566ed89d5eeca1de8a621e790df3687ccd89b3c8b89edfc61d9702f8c",
    "t1r03-n6q2": "888937ca10d729618f50e697936f4b2f6b35cb3ba98bb20d2c7ccbf96e613f68",
    "t1r05-m2": "a6db855748ff081111fe2bfd19d28260108717f5c64c6e7911d798240c0a49a2",
    "t1r08-q2": "96ea3d1bc9c8cafcd9cc5fabb76d155f298c1c9d95400520e7dac79817af4ed2",
    "neg-sl6-g2p": "d2fac69ee64b1eb1aac1758c360fc25dd65ca42a3823ad88e67b54159483149c",
    # row 12c's literal normalizing elements and their residual
    "t1r12-c": "dbb581136da8c669b1e9669553338d7d84505d46661c705c2e0982ab1e6aa304",
    # row 12a's literal S5 witnesses and residual reading, and row 14's
    # extended claim, both through build_setup
    "t1r12-a": "0ea43f8b456713bb51f2b1e61371e943baf35fdbfb345cd7e055b7838ca3bb16",
    "t1r14-ext": "ec6ca6876457430634ae87ba409cc4027de6fa19a63e8f0fb6f395e65bac454f",
}


@pytest.mark.parametrize("claim_id", sorted(DIGESTS))
def test_default_report_bytes_are_pinned(claim_id):
    claim = load_catalog().claim_by_id(claim_id)
    report = verify_claim(claim).as_dict()
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == DIGESTS[claim_id]
