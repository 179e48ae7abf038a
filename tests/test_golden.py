"""Behaviour lock: digests of the CLI outputs for every bundled scenario.

Each (scenario, protocol) pair runs at seed 0 and is written through
``cli._write_outputs``; the SHA-256 of ``trace.ndjson`` and
``metrics.json`` must match the tables below. A change that alters trace
bytes on purpose bumps ``cli.TRACE_VERSION`` and updates these tables.

``NOISY_GOLDEN`` runs two scenarios over a lossy, noisy channel. No bundled
scenario draws from the RNG per reception, so only these digests catch a
change in the order of deliveries or channel draws.

``V2_TRACE`` and ``V1_TRACE`` keep every case's trace digest from format
versions 2 and 1. Version 2 stored only broadcasts as columns, with the
``emitters`` list inside that section; version 1 stored one JSON object
per row everywhere. Each case rebuilds those bytes from its version-3 run,
proving them authentic old output, and replays them through
``read_trace`` to the case's pinned ``metrics.json``.

``ADVERSARY_GOLDEN`` locks every adversary path on one scenario built
here, on the clean and the noisy channel: the bundled relay plus a replay,
two floods, a suppression, an eavesdropper, a tampered report and a report
on another user's certificate. The bundled files hold only the relay, and
each injection is scheduled work whose arguments a change could bind late.
"""

import copy
import hashlib

import pytest

from venuetrace.cli import _SECTIONS, TRACE_FORMAT, _canonical, _write_outputs, read_trace
from venuetrace.metrics import collect_metrics
from venuetrace.scenario import Scenario, ScenarioEvent, VenueSpec
from venuetrace.schedule import SECONDS_PER_DAY
from venuetrace.sim import row_sections, run
from venuetrace.table import rows

from bundled import SCENARIOS, broadcast_rows, bundled

# (scenario stem, protocol) -> (sha256 of trace.ndjson, sha256 of metrics.json)
GOLDEN = {
    ("duty_cycle", "venue"): ("f180210bbd096f79819ff382351f9ac57638f23e0b924e43b4a02ef930ac9d5f", "912a777161e50bfc80cb7ac39712c1299aa7a169bd3ddbf90a7effbaf6f35462"),
    ("duty_cycle", "dp3t"): ("4586bbc9ea78d07ec3ad36f992ff7cbf9b1fc385ac05272dceaf42567ba49cc4", "016dda263df8ed260b051f5afde1231b2946e9f1fc3c154e87a83fdffe04e1e8"),
    ("duty_cycle", "tracetogether"): ("8328602c3da662ff67da31677c9b44a9efeb08ce5a66d17a58f7025a1efe5179", "4851e81e273bec109178d60ab1ff0917e3836bcc15e5ddff96e8f89d87fe3c32"),
    ("population_small", "venue"): ("bc12cc46f408b4852a6fb6850b1882574ddf966670a06736c90fccd08f30a356", "cb524bc38cc71f989ac71f28ac1a0c0aa3a16845543840f76cb1b648c8373a3e"),
    ("population_small", "dp3t"): ("e3fcbc4e804dc1a27c042c21b2c4f91a2ee424aad55e0fe41f2c5b98e125389b", "efd7682876c367b8905b9309a894830e6f0dc2e6a02080d41bc090483bfd6ef3"),
    ("population_small", "tracetogether"): ("ddc7b642406a43fab273ee5a38ad60f44616ec1c5fc4034f6ce0ca975743ef9f", "69fe075597496d2adc84d31c39e14224563e7610721ccae80e3bfd58f5e27731"),
    ("relay_attack", "venue"): ("ba2c3b288817fbb1d47a20ee3416482726b17702fc631b0b71d360cd4edfad26", "5dcad84a952e0f29a00b1b5d667084d0d061347a7dc5cebb09e4c732f1976f8a"),
    ("relay_attack", "dp3t"): ("df7a1a030d0eff0fe1e6fb432b583d04b4678927c649abf5930b793eae8ebe41", "c76c9050bfe3bcfb2c18397021678c3c2d950b2ac5a6f2a247b61c8f7ec72406"),
    ("relay_attack", "tracetogether"): ("11b8f8bf79f285f9a8b9849ef08e965eb74bb561e0c4fb378dfe4f3eb08e5bb9", "6daa91b262f8ae3bc02ab41086da9c72519a2cfd116cec112fff31be85f138e4"),
    ("relay_baseline", "venue"): ("58af1d8a2ea3c428350b993683500d6446535f07ed26ef4dfa4b04f310b17f21", "0c7e51042281e40bd0cc5470f325c0f9e2cb05b6dbae98b3f37fae979b0ff426"),
    ("relay_baseline", "dp3t"): ("960ca7c1dfb4b68b5ed05bca8307b6d4e7c3b4524cc7c53d180100baf5468c66", "76cf24e695ba9cd4024ea13444da04608d47e6d38343f9f39b091461145e9edf"),
    ("relay_baseline", "tracetogether"): ("0e783aa37325df0d7da30b41cfa4e7ce1b081c8506946177beae749158c1eaa4", "2cca3de2929f7c7879c75b6e29a536ebef722512e78349a4cec08c9790fa7cfa"),
    ("street_encounter", "venue"): ("05f763571dde7c81ba768283a18d978bb7305ed4dc774e33ea6976c2811c2cdf", "9f6b02bbb49b71d76626273340b80a78df8d7fabc2913e6dbbd9964ebf95a1b0"),
    ("street_encounter", "dp3t"): ("794bd5e215d687a2d61529f10ebc0c7b41a0d623ba469f248216a4aa72e69a01", "69f91bcce614190bf181da2e427c76a79713520fbf317103ac01cd53fae767cb"),
    ("street_encounter", "tracetogether"): ("febe3355692afd97b29dc3b7184b213f442cb8d5af3897c84df603d97d5b9fa1", "b74b2dfcb97593bd328a1d8686edbf9666d8be36c7091bbfd1c24a84fe32f4b7"),
}

NOISY_CHANNEL = {"noise_sigma_db": 4.0, "reception_prob": 0.7}
NOISY_GOLDEN = {
    ("population_small", "venue"): ("13e192f676f42810f9e36d887f55f48a8447ea64baca0c5015d40e78f1635992", "129a1c3ccd1bc83b8201bbf3726b14ba0d5b7ab21c814a6fa8c1240a15e27bd6"),
    ("population_small", "dp3t"): ("ae89a5ce5ee7a93ae6b3e6bf97da5f387eb347dfa43d3184d81f73d513d18ae9", "35426b508832267523d330d0067fb877f93798c9d92035d7b658484f2e92a81b"),
    ("population_small", "tracetogether"): ("4df2d3b7d8531b2c065f0d162301b0a82fae7401e3b362b21e7b582db9b97dd9", "69fe075597496d2adc84d31c39e14224563e7610721ccae80e3bfd58f5e27731"),
    ("street_encounter", "venue"): ("674649b75ed5e059a05f099be194d43c6711bb9e9c78534cc570540562ad3c69", "9f6b02bbb49b71d76626273340b80a78df8d7fabc2913e6dbbd9964ebf95a1b0"),
    ("street_encounter", "dp3t"): ("e9c1976606835928eff791414739b5fe316b81ca265875bc423cd23be7ea31a3", "45ee2dacfe4a3922de900822f8c2bd7e7cc085e7820155fc5a4fe3ba22e73346"),
    ("street_encounter", "tracetogether"): ("51695d3e0cec2476001269f4a3b954693ce42ca4c85d1a201ad92f3990540410", "b74b2dfcb97593bd328a1d8686edbf9666d8be36c7091bbfd1c24a84fe32f4b7"),
}


# (scenario stem, protocol, noisy channel) -> sha256 of the case's
# trace.ndjson at TRACE_VERSION 2, only broadcasts as columns
V2_TRACE = {
    ("duty_cycle", "venue", False): "7d251855c11e79298d76fc9aaeb6a3cd41501e0c4fdf9c9a5c75b413095ac11e",
    ("duty_cycle", "dp3t", False): "1f50da5b0785cec8c170519d4d6d6197f089e37bcf58e9fc0286898c7c6b2fce",
    ("duty_cycle", "tracetogether", False): "8e508d8b683f782aff665bd7cce8211abff7ea4a60299c6a9c553efc05557d72",
    ("population_small", "venue", False): "c0674c39e2d300f51f51864d02926264bcdbd00979a8d28bc9fc11c9b4ee179f",
    ("population_small", "dp3t", False): "3469d4df8aff70ba010250ea55f3635369977e4f03d5f3fc5e1cff077aafd64d",
    ("population_small", "tracetogether", False): "15d4097d469ca095a34956934d34adb53224936eb58143b300b168d215ea19f4",
    ("relay_attack", "venue", False): "7a7bcb152506cc8ad70d910b9e1d3fbc72ddf5d5c1d0a90997d57db7089ac386",
    ("relay_attack", "dp3t", False): "8788564cb263d44f3a487c7aa5a150379ebff485c999688a9545c3891eaeebb9",
    ("relay_attack", "tracetogether", False): "511c98e9e7660f658b86a73cb4a921382514de4d0682f677d384d6bc54771475",
    ("relay_baseline", "venue", False): "84ad556dc17405b5665f2e9061ec07fb8db8d9eae2c4ac8cb6466834b050c244",
    ("relay_baseline", "dp3t", False): "5343b53dcb6f93a445ae24afa4b0cfe0d85c477e01577e1057ffc2793ceb29b7",
    ("relay_baseline", "tracetogether", False): "9f9da4082786872286baeee07e90cf221f7068f58daf96a9e9e268f10310fd6f",
    ("street_encounter", "venue", False): "b70295f621d35c2a11b7bc4775306022ba25ec0b5d3f06a3ab5ef2e4826cac28",
    ("street_encounter", "dp3t", False): "abe3b4076fc73b658e44d31c361c46cf0116a9ede699829048f6bdb2d382d203",
    ("street_encounter", "tracetogether", False): "aba71c35494dbcaa04ea4ba0900e65584efcdf0ba4af56ce218dd7198133a5c0",
    ("population_small", "venue", True): "acc23142319288fbe713e740a48daa9494095c65ccaba573851e92f7ca688ae4",
    ("population_small", "dp3t", True): "5e52786648989af6f107ddcd99c33cedade4b1414a4c66e0d84913067ea8d826",
    ("population_small", "tracetogether", True): "ad8a544f65bdf00f40edadb394a38aa2d861e03cc03203cb068d147d0773cb8a",
    ("street_encounter", "venue", True): "67c786efa52b9e41af0b5a2135477a7e61469fc483649cf087d57bdd2ae56a2e",
    ("street_encounter", "dp3t", True): "0709a63ce32e58784c00b9f545712700fa39dc98e915cc121ba5488251b97f41",
    ("street_encounter", "tracetogether", True): "be29c3cc00dd629d452f88c2f9f8d722273131a05cc2a45466d32fb7615c4543",
}

# (scenario stem, protocol, noisy channel) -> sha256 of the case's
# trace.ndjson at TRACE_VERSION 1, one JSON object per row
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

# (protocol, noisy channel) -> (sha256 of trace.ndjson, sha256 of metrics.json)
# for the scenario ``_adversary_scenario`` builds
ADVERSARY_GOLDEN = {
    ("venue", False): ("6add2d88d74eaf3f5ad0be75aced99b85d310a8f8d9c3346cdb6b9992aa4f6b8", "ac00c1ff058afb71fe07176f6ebede292ce9150a611abc9a731ee5300f1739d4"),
    ("dp3t", False): ("7142740c890d908cf1aa1177b3bd0d0c059728d2ba8539ebf2981151f7d5dc29", "732c33cb8ed5c23488a759403df260e4d4aa153f3706aa23232ed1f1c4a873c0"),
    ("tracetogether", False): ("607eed002c8529502e76b9a39b7365994c69f9671ebc48b0690b8d4db6635ca5", "d98694bd83b70906be1f659074b32f9c6eda99bcdae528ff99ceb2e7ce337ab0"),
    ("venue", True): ("62448798ab7a4d2db6eadc2c99b100ac4839631bb838a2406a61b83384ccd06f", "21d8da4701750cc16734841913e0aad0eb1ad99483aae1093ed9b59d3f44e135"),
    ("dp3t", True): ("b6a01038dba4c64b5496aaf218c977602564785922f235914d09a9b248b8c6f9", "3c7c5cf933a1d5386f5813e976ba395ec7525953b861df0284ac23a32dfd88ab"),
    ("tracetogether", True): ("27c6a2ae8aa13e6e54998f0554aeb5303075ee9a692a5bc3bb92208baad8562e", "0108643b22c3758c0ed160d3efa60346a03c2339a45a08cda9514bc5ee29102a"),
}


def _adversary_scenario() -> Scenario:
    """``relay_attack`` plus u20 and u21 at a rate-capped venue v2, a replay
    at v1, a flood at v2 and a default one at v0, u11 suppressed, an
    eavesdropper at v0 and v2, a report with a corrupted opening and one on
    another user's certificate."""
    scenario = bundled("relay_attack")
    scenario.users += ["u20", "u21"]
    scenario.venues.append(VenueSpec("v2", {"max_broadcasts_per_minute": 30}))
    for time, kind, data in [
        (122400, "enter", {"user": "u20", "venue": "v2", "pos": [0.0, 0.0]}),
        (122400, "enter", {"user": "u21", "venue": "v2", "pos": [0.9, 0.0]}),
        (124200, "leave", {"user": "u20"}),
        (124200, "leave", {"user": "u21"}),
        (122400, "adversary_action", {"action": "replay_same_venue", "venue": "v1",
                                      "pos": [0.3, 0.3], "start": 122400, "end": 123300,
                                      "delay": 600}),
        (122500, "adversary_action", {"action": "flood", "venue": "v2", "start": 122500,
                                      "end": 122800, "per_minute": 90, "tx_dbm": 12.0,
                                      "pos": [0.5, 0.5]}),
        (122600, "adversary_action", {"action": "flood", "venue": "v0", "start": 122600,
                                      "end": 122700}),
        (123000, "adversary_action", {"action": "suppress_broadcasts", "user": "u11",
                                      "start": 123000, "end": 123600}),
        (100, "adversary_action", {"action": "linkage_eavesdrop", "venues": ["v0", "v2"]}),
        (176400, "test_positive", {"user": "u20", "period": [86400, 172800]}),
        (177000, "report", {"user": "u20", "tamper": "corrupt_opening"}),
        (177000, "report", {"user": "u21", "use_certificate_of": "u20"}),
        (180600, "trace_query", {"user": "u20"}),
        (180600, "trace_query", {"user": "u21"}),
    ]:
        scenario.events.append(ScenarioEvent(time, kind, data))
    return scenario


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _old_bytes(trace, version: int) -> bytes:
    """The trace file as format version 1 or 2 wrote it: every other row
    section as rows; broadcasts as rows (1) or as columns holding the
    ``emitters`` list (2)."""
    data = copy.deepcopy(trace.data)
    for _, mapping, key in row_sections(data):
        mapping[key] = rows(mapping[key])
    emitters = data.pop("emitters")
    data["broadcasts"] = (
        broadcast_rows(trace.data) if version == 1 else {**data["broadcasts"], "emitters": emitters}
    )
    lines = [_canonical({"format": TRACE_FORMAT, "version": version})]
    lines += [_canonical({"section": s, "data": data[s]}) for s in _SECTIONS if s in data]
    body = ("\n".join(lines) + "\n").encode("utf-8")
    return body + (_canonical({"sha256": _sha256(body)}) + "\n").encode("utf-8")


def _replay_old(stem, protocol, noisy, version, digests, tmp_path):
    """Rebuild a case's old trace bytes, check them against ``digests``,
    and replay them to the same data and the case's pinned metrics."""
    scenario = bundled(stem)
    if noisy:
        scenario.params = {**scenario.params, "channel": NOISY_CHANNEL}
    trace = run(scenario, protocol, 0)
    old = _old_bytes(trace, version)
    assert _sha256(old) == digests[(stem, protocol, noisy)]
    (tmp_path / "trace.ndjson").write_bytes(old)
    data = read_trace(tmp_path / "trace.ndjson")
    assert data == trace.data
    metrics = (_canonical(collect_metrics(data).to_dict()) + "\n").encode("utf-8")
    golden = NOISY_GOLDEN if noisy else GOLDEN
    assert _sha256(metrics) == golden[(stem, protocol)][1]


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


@pytest.mark.parametrize("protocol,noisy", sorted(ADVERSARY_GOLDEN))
def test_adversary_digests(protocol, noisy, tmp_path):
    scenario = _adversary_scenario()
    if noisy:
        scenario.params = {**scenario.params, "channel": NOISY_CHANNEL}
    assert _digests(scenario, protocol, tmp_path) == ADVERSARY_GOLDEN[(protocol, noisy)]


def test_every_bundled_scenario_is_locked():
    assert {stem for stem, _ in GOLDEN} == {p.stem for p in SCENARIOS.glob("*.json")}


@pytest.mark.parametrize("stem,protocol,noisy", sorted(V2_TRACE))
def test_v2_trace_replays_to_the_golden_metrics(stem, protocol, noisy, tmp_path):
    _replay_old(stem, protocol, noisy, 2, V2_TRACE, tmp_path)


@pytest.mark.parametrize("stem,protocol,noisy", sorted(V1_TRACE))
def test_v1_trace_replays_to_the_golden_metrics(stem, protocol, noisy, tmp_path):
    _replay_old(stem, protocol, noisy, 1, V1_TRACE, tmp_path)


@pytest.mark.parametrize("version", [1, 2])
def test_old_trace_without_broadcasts_replays(version, tmp_path):
    trace = run(Scenario("empty", SECONDS_PER_DAY, ["u00"], [], []), "venue", 0)
    assert trace.data["emitters"] == []
    (tmp_path / "trace.ndjson").write_bytes(_old_bytes(trace, version))
    assert read_trace(tmp_path / "trace.ndjson") == trace.data
