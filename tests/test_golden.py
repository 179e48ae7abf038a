"""Behaviour lock: digests of the CLI outputs for every bundled scenario.

Each (scenario, protocol) pair runs at seed 0 and is written through
``cli._write_outputs``; the SHA-256 of ``trace.ndjson`` and
``metrics.json`` must match the tables below. A change that alters trace
bytes on purpose bumps ``cli.TRACE_VERSION`` and updates these tables.

``NOISY_GOLDEN`` runs two scenarios over a lossy, noisy channel. No bundled
scenario draws from the RNG per reception, so only these digests catch a
change in the order of deliveries or channel draws.

``V1_TRACE`` keeps every case's trace digest from format version 1, which
stored one JSON object per broadcast. Each case rebuilds those bytes from
its version-2 run, proving them authentic version-1 output, and replays
them through ``read_trace`` to the case's pinned ``metrics.json``.
"""

import hashlib

import pytest

from venuetrace.cli import _SECTIONS, TRACE_FORMAT, _canonical, _write_outputs, read_trace
from venuetrace.metrics import collect_metrics
from venuetrace.sim import run

from bundled import SCENARIOS, bundled

# (scenario stem, protocol) -> (sha256 of trace.ndjson, sha256 of metrics.json)
GOLDEN = {
    ("duty_cycle", "venue"): ("7d251855c11e79298d76fc9aaeb6a3cd41501e0c4fdf9c9a5c75b413095ac11e", "912a777161e50bfc80cb7ac39712c1299aa7a169bd3ddbf90a7effbaf6f35462"),
    ("duty_cycle", "dp3t"): ("1f50da5b0785cec8c170519d4d6d6197f089e37bcf58e9fc0286898c7c6b2fce", "016dda263df8ed260b051f5afde1231b2946e9f1fc3c154e87a83fdffe04e1e8"),
    ("duty_cycle", "tracetogether"): ("8e508d8b683f782aff665bd7cce8211abff7ea4a60299c6a9c553efc05557d72", "4851e81e273bec109178d60ab1ff0917e3836bcc15e5ddff96e8f89d87fe3c32"),
    ("population_small", "venue"): ("c0674c39e2d300f51f51864d02926264bcdbd00979a8d28bc9fc11c9b4ee179f", "cb524bc38cc71f989ac71f28ac1a0c0aa3a16845543840f76cb1b648c8373a3e"),
    ("population_small", "dp3t"): ("3469d4df8aff70ba010250ea55f3635369977e4f03d5f3fc5e1cff077aafd64d", "efd7682876c367b8905b9309a894830e6f0dc2e6a02080d41bc090483bfd6ef3"),
    ("population_small", "tracetogether"): ("15d4097d469ca095a34956934d34adb53224936eb58143b300b168d215ea19f4", "69fe075597496d2adc84d31c39e14224563e7610721ccae80e3bfd58f5e27731"),
    ("relay_attack", "venue"): ("7a7bcb152506cc8ad70d910b9e1d3fbc72ddf5d5c1d0a90997d57db7089ac386", "5dcad84a952e0f29a00b1b5d667084d0d061347a7dc5cebb09e4c732f1976f8a"),
    ("relay_attack", "dp3t"): ("8788564cb263d44f3a487c7aa5a150379ebff485c999688a9545c3891eaeebb9", "c76c9050bfe3bcfb2c18397021678c3c2d950b2ac5a6f2a247b61c8f7ec72406"),
    ("relay_attack", "tracetogether"): ("511c98e9e7660f658b86a73cb4a921382514de4d0682f677d384d6bc54771475", "6daa91b262f8ae3bc02ab41086da9c72519a2cfd116cec112fff31be85f138e4"),
    ("relay_baseline", "venue"): ("84ad556dc17405b5665f2e9061ec07fb8db8d9eae2c4ac8cb6466834b050c244", "0c7e51042281e40bd0cc5470f325c0f9e2cb05b6dbae98b3f37fae979b0ff426"),
    ("relay_baseline", "dp3t"): ("5343b53dcb6f93a445ae24afa4b0cfe0d85c477e01577e1057ffc2793ceb29b7", "76cf24e695ba9cd4024ea13444da04608d47e6d38343f9f39b091461145e9edf"),
    ("relay_baseline", "tracetogether"): ("9f9da4082786872286baeee07e90cf221f7068f58daf96a9e9e268f10310fd6f", "2cca3de2929f7c7879c75b6e29a536ebef722512e78349a4cec08c9790fa7cfa"),
    ("street_encounter", "venue"): ("b70295f621d35c2a11b7bc4775306022ba25ec0b5d3f06a3ab5ef2e4826cac28", "9f6b02bbb49b71d76626273340b80a78df8d7fabc2913e6dbbd9964ebf95a1b0"),
    ("street_encounter", "dp3t"): ("abe3b4076fc73b658e44d31c361c46cf0116a9ede699829048f6bdb2d382d203", "69f91bcce614190bf181da2e427c76a79713520fbf317103ac01cd53fae767cb"),
    ("street_encounter", "tracetogether"): ("aba71c35494dbcaa04ea4ba0900e65584efcdf0ba4af56ce218dd7198133a5c0", "b74b2dfcb97593bd328a1d8686edbf9666d8be36c7091bbfd1c24a84fe32f4b7"),
}

NOISY_CHANNEL = {"noise_sigma_db": 4.0, "reception_prob": 0.7}
NOISY_GOLDEN = {
    ("population_small", "venue"): ("acc23142319288fbe713e740a48daa9494095c65ccaba573851e92f7ca688ae4", "129a1c3ccd1bc83b8201bbf3726b14ba0d5b7ab21c814a6fa8c1240a15e27bd6"),
    ("population_small", "dp3t"): ("5e52786648989af6f107ddcd99c33cedade4b1414a4c66e0d84913067ea8d826", "35426b508832267523d330d0067fb877f93798c9d92035d7b658484f2e92a81b"),
    ("population_small", "tracetogether"): ("ad8a544f65bdf00f40edadb394a38aa2d861e03cc03203cb068d147d0773cb8a", "69fe075597496d2adc84d31c39e14224563e7610721ccae80e3bfd58f5e27731"),
    ("street_encounter", "venue"): ("67c786efa52b9e41af0b5a2135477a7e61469fc483649cf087d57bdd2ae56a2e", "9f6b02bbb49b71d76626273340b80a78df8d7fabc2913e6dbbd9964ebf95a1b0"),
    ("street_encounter", "dp3t"): ("0709a63ce32e58784c00b9f545712700fa39dc98e915cc121ba5488251b97f41", "45ee2dacfe4a3922de900822f8c2bd7e7cc085e7820155fc5a4fe3ba22e73346"),
    ("street_encounter", "tracetogether"): ("be29c3cc00dd629d452f88c2f9f8d722273131a05cc2a45466d32fb7615c4543", "b74b2dfcb97593bd328a1d8686edbf9666d8be36c7091bbfd1c24a84fe32f4b7"),
}


# (scenario stem, protocol, noisy channel) -> sha256 of the case's
# trace.ndjson at TRACE_VERSION 1, one JSON object per broadcast
V1_TRACE = {
    ("duty_cycle", "venue", False): "c8646f3fae4d19f4856eb0599ee59bc0a0e807cdd5ed1b3945bd180b492353b4",
    ("duty_cycle", "dp3t", False): "6f78eb12fee80d15bdda8c25a891c03ea14fe0b3224d2d7aa1c07991b956efa2",
    ("duty_cycle", "tracetogether", False): "1216e527095ac682ca334456043b4faf34516c53a1fa92ca9030fc50cf090663",
    ("population_small", "venue", False): "fee7da420c7a0aafa1f2ed467ea681f269cd498fc4d23da09a3428e09bdcefb3",
    ("population_small", "dp3t", False): "e3403146226745b03d33822d2d105e873756a24352f611b919b8f157b86e7f71",
    ("population_small", "tracetogether", False): "7bf197321e246d46316f3ba82d215fdf5b5e81d21b0cac83fe01f3833e4d120e",
    ("relay_attack", "venue", False): "ff93288c49a69379eb59741d3fc649300b43b8fc7ed5f12fa5738180ccc48687",
    ("relay_attack", "dp3t", False): "40d0da9ea0fe7c21f3ace1500093db0c530d1f199959145b15d0281e7a5d9f45",
    ("relay_attack", "tracetogether", False): "512e1aa1d833091ac90f9da4c0537df53109ac3d435a50c37d280349b7d8dbd4",
    ("relay_baseline", "venue", False): "93f7df4b7dee6ebff502a28df0cd5d57f54fb90129ea63ac06b9cdfc95db1f0a",
    ("relay_baseline", "dp3t", False): "5725b44c3b55c8cf86915a8eb21306118169ba7978beb2357e27caee08386b9c",
    ("relay_baseline", "tracetogether", False): "3004e4a792c1e7b937bd113f2e9b8ba489d335f1c4fce39f4b6e0e6765f55ebf",
    ("street_encounter", "venue", False): "25b8cb76cfcbed9153a99d721e8917f10df97f8281ac45d909ef6165b337414e",
    ("street_encounter", "dp3t", False): "f90f30c7f8b3403a5a7f27fe0515b17c2ed2176f3566de670880a5f065d75e0f",
    ("street_encounter", "tracetogether", False): "d3e565a90145d3a365c633b77a7c19b3be6e30ecd446eb2aa5b9b472033374f9",
    ("population_small", "venue", True): "87975fc69a8d23843f3ddb40412d1408c893da25e709b10c269c74c94c730aa1",
    ("population_small", "dp3t", True): "76ab7848739bdf2b7852e270314f5b974fc56c48999ab793e923c6f422c77535",
    ("population_small", "tracetogether", True): "80afe42c8d2665823b7d97f4bb27bb45784cc6fc9cbdbee1c58bf8c37263c713",
    ("street_encounter", "venue", True): "8e454a7ba55e1d64ea97ea7bc2906a0275b4a41fcbf3b0328becfa69991d8b33",
    ("street_encounter", "dp3t", True): "f5fb5b95311a3ccedb7423dadf57e2ef3fe8acfd4f2e2536147a5284568f1a02",
    ("street_encounter", "tracetogether", True): "6915f83eaed5536b2a0214c02d834e80a0d8c40091ed921d147c248447de67e6",
}

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _v1_bytes(trace) -> bytes:
    """The trace file as format version 1 wrote it: broadcasts as rows."""
    data = {**trace.data, "broadcasts": trace.broadcasts}
    lines = [_canonical({"format": TRACE_FORMAT, "version": 1})]
    lines += [_canonical({"section": s, "data": data[s]}) for s in _SECTIONS]
    body = ("\n".join(lines) + "\n").encode("utf-8")
    return body + (_canonical({"sha256": _sha256(body)}) + "\n").encode("utf-8")


def _digests(scenario, protocol, out_dir):
    _write_outputs(run(scenario, protocol, 0).data, out_dir)
    return tuple(
        hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("trace.ndjson", "metrics.json")
    )


@pytest.mark.parametrize("stem,protocol", sorted(GOLDEN))
def test_golden_digests(stem, protocol, tmp_path):
    scenario = bundled(stem)
    assert _digests(scenario, protocol, tmp_path) == GOLDEN[(stem, protocol)]


@pytest.mark.parametrize("stem,protocol", sorted(NOISY_GOLDEN))
def test_noisy_channel_digests(stem, protocol, tmp_path):
    scenario = bundled(stem)
    scenario.params = {**scenario.params, "channel": NOISY_CHANNEL}
    assert _digests(scenario, protocol, tmp_path) == NOISY_GOLDEN[(stem, protocol)]


def test_every_bundled_scenario_is_locked():
    assert {stem for stem, _ in GOLDEN} == {p.stem for p in SCENARIOS.glob("*.json")}


@pytest.mark.parametrize("stem,protocol,noisy", sorted(V1_TRACE))
def test_v1_trace_replays_to_the_golden_metrics(stem, protocol, noisy, tmp_path):
    scenario = bundled(stem)
    if noisy:
        scenario.params = {**scenario.params, "channel": NOISY_CHANNEL}
    trace = run(scenario, protocol, 0)
    v1 = _v1_bytes(trace)
    assert _sha256(v1) == V1_TRACE[(stem, protocol, noisy)]
    (tmp_path / "trace.ndjson").write_bytes(v1)
    data = read_trace(tmp_path / "trace.ndjson")
    assert data["broadcasts"] == trace.data["broadcasts"]
    metrics = (_canonical(collect_metrics(data).to_dict()) + "\n").encode("utf-8")
    golden = NOISY_GOLDEN if noisy else GOLDEN
    assert _sha256(metrics) == golden[(stem, protocol)][1]
