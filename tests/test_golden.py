"""Behaviour lock: digests of the CLI outputs for every bundled scenario.

Each (scenario, protocol) pair runs at seed 0 and is written through
``cli._write_outputs``; the SHA-256 of ``trace.ndjson``, ``metrics.json``
and ``events.ndjson`` must match the tables below. A change that alters
trace bytes on purpose bumps ``trace.TRACE_VERSION`` and updates these
tables.

``NOISY_GOLDEN`` runs two scenarios over a lossy, noisy channel. No bundled
scenario draws from the RNG per reception, so only these digests catch a
change in the order of deliveries or channel draws.

``ADVERSARY_GOLDEN`` locks every adversary path on one scenario built
here, on the clean and the noisy channel: the bundled relay plus a replay,
two floods, a suppression, an eavesdropper, a tampered report and a report
on another user's certificate. The bundled files hold only the relay, and
each injection is scheduled work whose arguments a change could bind late.

``V5_TRACE`` keeps every case's trace digest from format version 5, which
stored each broadcast payload as its own base64 string and each emitter
index in full. ``V4_TRACE`` keeps those of version 4, which stored bytes in
hex, each scripted event in ``config`` as well, and each group element in
full. ``V3_TRACE`` keeps those of version 3, which also stored each
broadcast value and record key in full. Each case expands its version-6
data back to version-5 bytes, those data on to version-4 bytes, and those
on to version-3 bytes, proving that packed payloads, emitter ranges,
base64, the scripted events kept once, runs and indexes lose nothing; and
it reads its own trace back to the same data.
"""

import copy
import hashlib
from base64 import b64decode

import pytest

from venuetrace.cli import _write_outputs
from venuetrace.scenario import Scenario, ScenarioEvent, VenueSpec, build_population_scenario
from venuetrace.sim import run
from venuetrace.trace import (
    INDEXES, LAYOUT, TRACE_FORMAT, _canonical, b64, by_key, columns, read_trace, rows, scenario_dict, select,
    tables, write_trace,
)

from bundled import SCENARIOS, bundled

# (scenario stem, protocol) -> sha256 of (trace.ndjson, metrics.json, events.ndjson)
GOLDEN = {
    ("duty_cycle", "venue"): ("e3af2d2614b626b41c9000f54768203bfea08404287a1812a90a3af682c0d62d", "912a777161e50bfc80cb7ac39712c1299aa7a169bd3ddbf90a7effbaf6f35462", "1e63829c48fed1ab637ef6a5eb8381988864930adbe51f19920a2ea2342f1d0e"),
    ("duty_cycle", "dp3t"): ("c27082af4eac3ec2f254f5ed7e56469de855cf95faa3b5cdd40cc19ffa607f4e", "016dda263df8ed260b051f5afde1231b2946e9f1fc3c154e87a83fdffe04e1e8", "e7cdc1bb5aa5fa987817925b878dda5164613b8606f01c81b2c43bcd7c393dbb"),
    ("duty_cycle", "tracetogether"): ("79544d51b8cecb5ee5f86b1b72d5c3727e1cb6cc83cae707c0b6ba20a77cfde0", "4851e81e273bec109178d60ab1ff0917e3836bcc15e5ddff96e8f89d87fe3c32", "e7cdc1bb5aa5fa987817925b878dda5164613b8606f01c81b2c43bcd7c393dbb"),
    ("population_small", "venue"): ("8a67dbcad6562ac9d5a67b64467ce834e4e1b0cc7cad10ad4bda2c4c8c67d665", "cb524bc38cc71f989ac71f28ac1a0c0aa3a16845543840f76cb1b648c8373a3e", "e368a0d4cfd8b89e6c24d26982259327b73959362b00e78f2d654895ebfcf87e"),
    ("population_small", "dp3t"): ("b8cde6c878ca45816a0cce5fb16e0c65957dfebc8310d4e5c16f7d55c06872dd", "efd7682876c367b8905b9309a894830e6f0dc2e6a02080d41bc090483bfd6ef3", "8df3eaed0338cd70fd6db2949d9565f929a768399a16967cf194e9f1ed9643fb"),
    ("population_small", "tracetogether"): ("8baa6d6dac850db12ab4708c04df3bc6c54269c43ae6b2ea939bba3dfe1afbd7", "69fe075597496d2adc84d31c39e14224563e7610721ccae80e3bfd58f5e27731", "c1accb018a23f7527f4e4e2cdc746d81b56d77e1c86501e976ba70f2e7607e1e"),
    ("relay_attack", "venue"): ("4f8df3ac00be3a914f33af99012e6718361ca57d8ed267b9452e8ea8b15df334", "5dcad84a952e0f29a00b1b5d667084d0d061347a7dc5cebb09e4c732f1976f8a", "c70a66486449a36537bf2b7e8833d9c969f8a4fb9bef958e728941b7107988ca"),
    ("relay_attack", "dp3t"): ("d0f6df711dc19a3187e68ae5af13c894ad939bcdbffd7a926fb306542ae8d733", "c76c9050bfe3bcfb2c18397021678c3c2d950b2ac5a6f2a247b61c8f7ec72406", "247c4e6a0a8a0062503e0322cdfa04fbe21bbb7ae8dd5089b131e186506acebf"),
    ("relay_attack", "tracetogether"): ("884926c5f4005913127f5c6ee9cdc060ed317c80b53e76303c0158b61cb77301", "6daa91b262f8ae3bc02ab41086da9c72519a2cfd116cec112fff31be85f138e4", "0644e8e540aa750fd59264b8248f15e937da9272c3b0291d97e96949ef3d352e"),
    ("relay_baseline", "venue"): ("40547fff41111ec4382b2db692e9270d44affd739341e684aca04eb98bf13eb1", "0c7e51042281e40bd0cc5470f325c0f9e2cb05b6dbae98b3f37fae979b0ff426", "851a011ce43accfef26423e5f2e3720fa833203e3ae504c708ee1137874cbc6c"),
    ("relay_baseline", "dp3t"): ("779d3324f20eab125d478ddc8b6e3ccf3279b82e8405ad54c3371f8074806980", "76cf24e695ba9cd4024ea13444da04608d47e6d38343f9f39b091461145e9edf", "14b3e8ac0509f98e77443615093abfd91ba9cec41aee67104b50804c00f146b1"),
    ("relay_baseline", "tracetogether"): ("49c8e69516ef42df07d96015d5141c97a530c3179616db1ec66f4012b08fc9f4", "2cca3de2929f7c7879c75b6e29a536ebef722512e78349a4cec08c9790fa7cfa", "245a04e460003eb1d2bfcba180d382cf4e22679d7e8d143c3e86bbf71877e255"),
    ("street_encounter", "venue"): ("6a94a9120135e0d67046f4ee76ea079a77028b65fae1da522b95671a0d123141", "9f6b02bbb49b71d76626273340b80a78df8d7fabc2913e6dbbd9964ebf95a1b0", "98936e6e3a1249f4442704002bb9a95d99e0ef6f22f0f3d09dfe7c7568199e6f"),
    ("street_encounter", "dp3t"): ("2ecd5a4c3b8e9f69b4086ac27204bc3ca876df443e8eaa049f31071290fb2dc0", "69f91bcce614190bf181da2e427c76a79713520fbf317103ac01cd53fae767cb", "7e3d06b84e6e32eb392fb44916b3cfb36795b789dff07455b42c0b0a0e330722"),
    ("street_encounter", "tracetogether"): ("58222380db0274a13699b2d9d4e6b5739ad4442f70177c63a67eeca02cbd20da", "b74b2dfcb97593bd328a1d8686edbf9666d8be36c7091bbfd1c24a84fe32f4b7", "eacc3f9d570f093b7e40bf1818caa186a3485212dd22a042863474bfd9bdf708"),
}

NOISY_CHANNEL = {"noise_sigma_db": 4.0, "reception_prob": 0.7}
NOISY_GOLDEN = {
    ("population_small", "venue"): ("e18f73b30df7edfc9619a2c435c004f39254e6f40e81e01e7e03eb7483d14c2c", "129a1c3ccd1bc83b8201bbf3726b14ba0d5b7ab21c814a6fa8c1240a15e27bd6", "e368a0d4cfd8b89e6c24d26982259327b73959362b00e78f2d654895ebfcf87e"),
    ("population_small", "dp3t"): ("2c5bf7837d6303dcc07621658219b1c046abecbde9974e65975a890079bd42da", "35426b508832267523d330d0067fb877f93798c9d92035d7b658484f2e92a81b", "8df3eaed0338cd70fd6db2949d9565f929a768399a16967cf194e9f1ed9643fb"),
    ("population_small", "tracetogether"): ("f2458e523069c3e2ee21beb3e7de321119caa96d561da578cca7465e20770aad", "69fe075597496d2adc84d31c39e14224563e7610721ccae80e3bfd58f5e27731", "c1accb018a23f7527f4e4e2cdc746d81b56d77e1c86501e976ba70f2e7607e1e"),
    ("street_encounter", "venue"): ("cec2fc2c918e8a265eee9e785b7fbc7db1fd3b16377948441be1d8bc6e414636", "9f6b02bbb49b71d76626273340b80a78df8d7fabc2913e6dbbd9964ebf95a1b0", "98936e6e3a1249f4442704002bb9a95d99e0ef6f22f0f3d09dfe7c7568199e6f"),
    ("street_encounter", "dp3t"): ("535b5d1067216d38f8946c67aaecf0a1b613d9994945620cdaea5ff824281c28", "45ee2dacfe4a3922de900822f8c2bd7e7cc085e7820155fc5a4fe3ba22e73346", "7e3d06b84e6e32eb392fb44916b3cfb36795b789dff07455b42c0b0a0e330722"),
    ("street_encounter", "tracetogether"): ("b8272796c6ab4c80512156a902c56939e0956327b729127b8321a2d4552cd9eb", "b74b2dfcb97593bd328a1d8686edbf9666d8be36c7091bbfd1c24a84fe32f4b7", "eacc3f9d570f093b7e40bf1818caa186a3485212dd22a042863474bfd9bdf708"),
}


# (protocol, noisy channel) -> sha256 of (trace.ndjson, metrics.json,
# events.ndjson) for the scenario ``_adversary_scenario`` builds
ADVERSARY_GOLDEN = {
    ("venue", False): ("198673f82223bf4a954f4ac00749ffa595515842a953b8c439202820ba897d36", "ac00c1ff058afb71fe07176f6ebede292ce9150a611abc9a731ee5300f1739d4", "9e98f75f2f16ffeb6f227cc2341f4467649fe71b4169a757c139c40bc9c43ff6"),
    ("dp3t", False): ("0002ea655023fc064fe05ce2f3dabd5a7162f91bc96fce4f5776256b56a98a94", "732c33cb8ed5c23488a759403df260e4d4aa153f3706aa23232ed1f1c4a873c0", "1627f910e5756d3ffe49dc9544ea253b31ac56125d88324a2914ffb7d90c709c"),
    ("tracetogether", False): ("670a206f5a8f868cd77b7a053649dcb82e78fd344ac13e08d5dba78f3910c16c", "d98694bd83b70906be1f659074b32f9c6eda99bcdae528ff99ceb2e7ce337ab0", "0422a9ef5fcdcda16d435946f978d6596284093cb7ec84523693a346b367f28a"),
    ("venue", True): ("01d62acffbe02f81bf9850edea652617275b80f8b36c8fbcc6563c9ea7397551", "21d8da4701750cc16734841913e0aad0eb1ad99483aae1093ed9b59d3f44e135", "9e98f75f2f16ffeb6f227cc2341f4467649fe71b4169a757c139c40bc9c43ff6"),
    ("dp3t", True): ("87603c8938759e2663605e0d14620d4493cafe6aea579275795e7136f0a77ce5", "3c7c5cf933a1d5386f5813e976ba395ec7525953b861df0284ac23a32dfd88ab", "1627f910e5756d3ffe49dc9544ea253b31ac56125d88324a2914ffb7d90c709c"),
    ("tracetogether", True): ("b5a1d599230045b388285f9de87c63628db0b9ea0aab01ea768d6a04e5ee8705", "0108643b22c3758c0ed160d3efa60346a03c2339a45a08cda9514bc5ee29102a", "0422a9ef5fcdcda16d435946f978d6596284093cb7ec84523693a346b367f28a"),
}

# (scenario stem or "adversary", protocol, noisy channel) -> sha256 of the
# case's trace.ndjson at TRACE_VERSION 5
V5_TRACE = {
    ("duty_cycle", "dp3t", False): "2232a6be17216c42805ff8de577cb44f49dc2e8ec2319a8d9f9021d521530e05",
    ("duty_cycle", "tracetogether", False): "6ba25804c5e2f1a2cb26d07a34b17da1fbd1ca59053db758283d6986ffd69e9e",
    ("duty_cycle", "venue", False): "f6696a97dc468d3c8b4b7c21cd435d15ba4b5ce67241d8f8b524c6d1d11b1cf9",
    ("population_small", "dp3t", False): "4472477c86f41b6cc1627c5e0141cde568156758eeb5b037808d45dd62741f6e",
    ("population_small", "tracetogether", False): "b4a4732c6ee55f2432279cc70d05f71705aae2c9dd94ef84ec29526937b3537e",
    ("population_small", "venue", False): "14e6999a0ac05ef9516d48dca315f1cc2d2b5ad5f8014c433e7597c92d92207e",
    ("relay_attack", "dp3t", False): "4a7fb5b4be20c02b5720d6a15dda31b4edfa2d9fc1aa96ff7030a4bb769ec2c4",
    ("relay_attack", "tracetogether", False): "5e9d7b70300e4c55edde56433d9d2b1eee6cbb399c30b494e28bb2471adc56f6",
    ("relay_attack", "venue", False): "4fdec887f59498050974c784a06ab2c84f3927c9f63c01dcfb2f370ea714fb99",
    ("relay_baseline", "dp3t", False): "6547c29ccf7a93adff63317d035e43911a772fc58bbde600a215cca4385ef4a4",
    ("relay_baseline", "tracetogether", False): "bbcb9f0ffffdfae7076e824230c67889ed319f461f9b90de1d828ab7dea549dc",
    ("relay_baseline", "venue", False): "c88e5d8eda041725dcce4e415f3e7f505f9ddbc07dd9adde7266a1fc294f18b0",
    ("street_encounter", "dp3t", False): "42e4e9aa063ff4f7b10edf7ac5996c6312a988f16b7d541dced703d38fe35bef",
    ("street_encounter", "tracetogether", False): "8052c0670e9107d5432f3c4596186885cb886d7f5a1a25519c7ee74b409895aa",
    ("street_encounter", "venue", False): "0938380e385177b1caf1fc02185204b45cdef4137c834f56311b2f8b832ef000",
    ("adversary", "dp3t", False): "01ad9f08c4617fcf4fc21ef253e2a800298a2f64a080c5af7f53e6a7786b4ecd",
    ("adversary", "tracetogether", False): "ae271baff8fdfcb759037eb63adbfbe153246abb7f8b1c8af25292f074914774",
    ("adversary", "venue", False): "2e514b6b12c12504ca6b1d07ae294373aac8654d7c4bff1989eaa1e34ad76110",
    ("population_small", "dp3t", True): "44c2ae31d92fa068adb968dc84b82c6e105a2e0711984c48c3a343edcf77f703",
    ("population_small", "tracetogether", True): "a8569f5178bccf5b4bc9a79091152bebb9e666154732cdb7fe54fe55ada00798",
    ("population_small", "venue", True): "b67e6e30b197bcf94d8d4e7c208e4aa39b9592bde3210194b39a3d0a45197e23",
    ("street_encounter", "dp3t", True): "a40041dc22e3fc9c8e7fdee29a7c7be6995b9d7e7b7164ece115c311e64f9b33",
    ("street_encounter", "tracetogether", True): "e56a1ecdba607a19d4fa707e5f502fa27949ac6e6d37e8caff679f3147202b15",
    ("street_encounter", "venue", True): "572c431801b13f73530ba675a0b93cf349a30a4c56f5993e894edec2d0c6ef04",
    ("adversary", "dp3t", True): "7d20fca12397425fd0e9280a9add848bd8f3bdeae89fb8be133d43bcb74cbb4a",
    ("adversary", "tracetogether", True): "ada491f86d6e61b7cd14c62b5a93bea997caac79ce9dafb2149a00ac058f65cf",
    ("adversary", "venue", True): "bb3ab3f010aa7a0d433ac5cc8a2842dbc1cc5aa6bbf5a6290611f12240aeb73a",
}

# (scenario stem or "adversary", protocol, noisy channel) -> sha256 of the
# case's trace.ndjson at TRACE_VERSION 4
V4_TRACE = {
    ("duty_cycle", "dp3t", False): "ce3e7c67ed3abe28b82fb0d15af4d33d406d16066bd13a016233a3dae6acfa95",
    ("duty_cycle", "tracetogether", False): "f2808d989f3b143dd32269aa2813ea16a1f9c0b1c1ccf8bd9c48664261eddd3a",
    ("duty_cycle", "venue", False): "9708c5336e18b7d82186731ddb6f615b6f865b23b53645d234654faf045a8ce2",
    ("population_small", "dp3t", False): "fb44d3defa35fc7cc3f0b9a07318db607ad0bc88011c90b6246e06e16f2b47a8",
    ("population_small", "tracetogether", False): "8b013e9e6ed1ea87290220316ddc9ee33c160d2348a6b1a6ad72a25147267c7c",
    ("population_small", "venue", False): "005b27308ceb7365a74456e95a8d9f3f6c74714887330db1a8b1d05b135b3357",
    ("relay_attack", "dp3t", False): "a3e9d3460e2d142b69521760dca230b8f9fd4823ac5a01fdf9875ca47eacb0a0",
    ("relay_attack", "tracetogether", False): "611f89463a57b8a1a2f61040896008d3104ed41fb60c4ef390c6a547a259e675",
    ("relay_attack", "venue", False): "dc098649c31f489b3e6847b91fea19fb23333281760e01c78b78b2a7271519f1",
    ("relay_baseline", "dp3t", False): "d81a4cc135f0c4e02409cbd9416df1dd42e440d2864e31da373d04a947118137",
    ("relay_baseline", "tracetogether", False): "fdf340d75145ef49eb365b28953db5d9a0dd2320c0c6b112b68336adcbbf619a",
    ("relay_baseline", "venue", False): "11c6eb7d2847339d41cdb7a8a58ba6626fde508bb02573a7bab8a6a08daa71dc",
    ("street_encounter", "dp3t", False): "d9eac35423df38eb93d39cdeef22a4ab031421c652ff04660122b230e2f5baba",
    ("street_encounter", "tracetogether", False): "f8d7fdda461620e931adc7fa66723649973a1f254ba752167bed28cfacc89b0a",
    ("street_encounter", "venue", False): "4d64f6aaff8c705ab08790b50518bbb11c7de98adbfb8f38d07177611b4993a6",
    ("adversary", "dp3t", False): "144486c721a4483ccf3bc7d861239010edef9d21d7c6ec59a2f46dc38ca994f5",
    ("adversary", "tracetogether", False): "6529a4d3cd1063016a53e7c459d56755f73dae2a9a915d9fd465f6f29940140b",
    ("adversary", "venue", False): "ac09f957afd44953ab680f7de03f9fd97f8b34b25440a8d7dd2036f5c8a3fe5b",
    ("population_small", "dp3t", True): "b7506ded98f27e693e07c0a34fe31dd27e2398017a665ebdadb977a1e8a19805",
    ("population_small", "tracetogether", True): "55e24246d0f8d1baf3156e4a0f48643cf3a0b3834471fdf80820bddc93882c31",
    ("population_small", "venue", True): "4ecb76516870a71a368861cae7cfbf53a7820b1e305caaccac9ca772a3a24f1a",
    ("street_encounter", "dp3t", True): "311e48da2e97374c6b1569a7b7201945c5a251cd0cc01cbcc005db1c9e4ba4d9",
    ("street_encounter", "tracetogether", True): "bb10dee9006934ea41e9f4afbc7501071d0f5e59d484b75cc3b16c4a29f6fa6c",
    ("street_encounter", "venue", True): "fe47fe3954e67665d28b5616172ca0fbade270a8b89c2025bce5babce2392cc5",
    ("adversary", "dp3t", True): "4ab1f49c90373df3680b59038a1870aa72ab7e841cfdf7b1ae0fea7cca45e341",
    ("adversary", "tracetogether", True): "8b5bae4c35f8f868b15a3472e6678a4976425aefb06a8c6fae238b170bf485d8",
    ("adversary", "venue", True): "87f143cfa1986946f95ceda4b3bbdd8871d9606e4e6b638f71fed941ff90a6c8",
}

# (scenario stem or "adversary", protocol, noisy channel) -> sha256 of the
# case's trace.ndjson at TRACE_VERSION 3
V3_TRACE = {
    ("duty_cycle", "dp3t", False): "4586bbc9ea78d07ec3ad36f992ff7cbf9b1fc385ac05272dceaf42567ba49cc4",
    ("duty_cycle", "tracetogether", False): "8328602c3da662ff67da31677c9b44a9efeb08ce5a66d17a58f7025a1efe5179",
    ("duty_cycle", "venue", False): "f180210bbd096f79819ff382351f9ac57638f23e0b924e43b4a02ef930ac9d5f",
    ("population_small", "dp3t", False): "e3fcbc4e804dc1a27c042c21b2c4f91a2ee424aad55e0fe41f2c5b98e125389b",
    ("population_small", "tracetogether", False): "ddc7b642406a43fab273ee5a38ad60f44616ec1c5fc4034f6ce0ca975743ef9f",
    ("population_small", "venue", False): "bc12cc46f408b4852a6fb6850b1882574ddf966670a06736c90fccd08f30a356",
    ("relay_attack", "dp3t", False): "df7a1a030d0eff0fe1e6fb432b583d04b4678927c649abf5930b793eae8ebe41",
    ("relay_attack", "tracetogether", False): "11b8f8bf79f285f9a8b9849ef08e965eb74bb561e0c4fb378dfe4f3eb08e5bb9",
    ("relay_attack", "venue", False): "ba2c3b288817fbb1d47a20ee3416482726b17702fc631b0b71d360cd4edfad26",
    ("relay_baseline", "dp3t", False): "960ca7c1dfb4b68b5ed05bca8307b6d4e7c3b4524cc7c53d180100baf5468c66",
    ("relay_baseline", "tracetogether", False): "0e783aa37325df0d7da30b41cfa4e7ce1b081c8506946177beae749158c1eaa4",
    ("relay_baseline", "venue", False): "58af1d8a2ea3c428350b993683500d6446535f07ed26ef4dfa4b04f310b17f21",
    ("street_encounter", "dp3t", False): "794bd5e215d687a2d61529f10ebc0c7b41a0d623ba469f248216a4aa72e69a01",
    ("street_encounter", "tracetogether", False): "febe3355692afd97b29dc3b7184b213f442cb8d5af3897c84df603d97d5b9fa1",
    ("street_encounter", "venue", False): "05f763571dde7c81ba768283a18d978bb7305ed4dc774e33ea6976c2811c2cdf",
    ("adversary", "dp3t", False): "7142740c890d908cf1aa1177b3bd0d0c059728d2ba8539ebf2981151f7d5dc29",
    ("adversary", "tracetogether", False): "607eed002c8529502e76b9a39b7365994c69f9671ebc48b0690b8d4db6635ca5",
    ("adversary", "venue", False): "6add2d88d74eaf3f5ad0be75aced99b85d310a8f8d9c3346cdb6b9992aa4f6b8",
    ("population_small", "dp3t", True): "ae89a5ce5ee7a93ae6b3e6bf97da5f387eb347dfa43d3184d81f73d513d18ae9",
    ("population_small", "tracetogether", True): "4df2d3b7d8531b2c065f0d162301b0a82fae7401e3b362b21e7b582db9b97dd9",
    ("population_small", "venue", True): "13e192f676f42810f9e36d887f55f48a8447ea64baca0c5015d40e78f1635992",
    ("street_encounter", "dp3t", True): "e9c1976606835928eff791414739b5fe316b81ca265875bc423cd23be7ea31a3",
    ("street_encounter", "tracetogether", True): "51695d3e0cec2476001269f4a3b954693ce42ca4c85d1a201ad92f3990540410",
    ("street_encounter", "venue", True): "674649b75ed5e059a05f099be194d43c6711bb9e9c78534cc570540562ad3c69",
    ("adversary", "dp3t", True): "b6a01038dba4c64b5496aaf218c977602564785922f235914d09a9b248b8c6f9",
    ("adversary", "tracetogether", True): "27c6a2ae8aa13e6e54998f0554aeb5303075ee9a692a5bc3bb92208baad8562e",
    ("adversary", "venue", True): "62448798ab7a4d2db6eadc2c99b100ac4839631bb838a2406a61b83384ccd06f",
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


def _file(version: int, sections: tuple[str, ...], data) -> bytes:
    """The trace file of ``sections`` of ``data`` under a header of ``version``."""
    lines = [_canonical({"format": TRACE_FORMAT, "version": version})]
    lines += [_canonical({"section": s, "data": data[s]}) for s in sections]
    body = ("\n".join(lines) + "\n").encode("utf-8")
    return body + (_canonical({"sha256": _sha256(body)}) + "\n").encode("utf-8")


def _hex(text: str) -> str:
    return b64decode(text, validate=True).hex()


def _v5_data(data):
    """The data of ``data``'s trace as format version 5 held them: in
    ``broadcasts``, each payload as its own base64 string and each emitter
    index in full, one per row."""
    data = copy.deepcopy(data)
    broadcasts = data["broadcasts"]
    broadcasts["payload"] = [b64(payload) for payload, in select(broadcasts, "payload")]
    broadcasts["emitter"] = [index for index, in select(broadcasts, "emitter")]
    return data


def _v4_data(data):
    """The data of ``data``'s trace as format version 4 held them: no
    ``elements`` section, each element index replaced by its element, the
    scenario's events back in ``config``, and every value in base64 in hex."""
    data = copy.deepcopy(data)
    data["config"]["scenario"] = scenario_dict(data)
    elements = [_hex(e) for e in data.pop("elements")]
    data["records"] = [_hex(key) for key in data["records"]]
    data["broadcasts"]["payload"] = [_hex(p) for p in data["broadcasts"]["payload"]]
    outcomes = data["outcomes"]
    outcomes["record_reporters"] = {_hex(k): user for k, user in outcomes["record_reporters"].items()}
    for _, mapping, key, declared in tables(data):
        have = by_key(mapping[key])
        for column in have.keys() & {c for c, s in INDEXES.get(declared, {}).items() if s == "elements"}:
            have[column] = [elements[i] for i in have[column]]
    if "ids" in (ha := by_key(outcomes.get("actor_observed", {}).get("ha", {}))):
        ha["ids"] = [[_hex(i) for i in ids] for ids in ha["ids"]]
    if "key" in (published := outcomes.get("published_keys", {})):
        published["key"] = [_hex(k) for k in published["key"]]
    return data


def _v3_bytes(data) -> bytes:
    """The trace file of version-4 ``data`` as format version 3 wrote it: no
    ``records`` section, each record index replaced by its key, every run
    column expanded to one value per row, and ``rejected_queries`` back."""
    data = copy.deepcopy(data)
    records = data.pop("records")
    data["broadcasts"] = {key: [value for value, in select(data["broadcasts"], key)]
                          for key in data["broadcasts"]}
    outcomes = data["outcomes"]
    for row in (deliveries := rows(outcomes["deliveries"])):
        row["record_keys"] = [records[i] for i in row["record_keys"]]
    for row in (assessments := rows(outcomes["assessments"])):
        if row["record_key"] is not None:
            row["record_key"] = records[row["record_key"]]
    outcomes["deliveries"], outcomes["assessments"] = columns(deliveries), columns(assessments)
    outcomes["rejected_queries"] = {}  # always empty, and gone since version 4
    return _file(3, ("config", "presence", "broadcasts", "emitters", "events", "outcomes"), data)


def _digests(scenario, protocol, out_dir):
    _write_outputs(run(scenario, protocol, 0).data, out_dir)
    return tuple(
        hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("trace.ndjson", "metrics.json", "events.ndjson")
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


@pytest.mark.parametrize("case,protocol,noisy", sorted(V4_TRACE))
def test_v5_data_expands_to_the_v4_and_v3_traces(case, protocol, noisy, tmp_path):
    """Version-6 data give the version-5 trace, whose data give the version-4 and version-3 traces."""
    assert V5_TRACE.keys() == V4_TRACE.keys() == V3_TRACE.keys()
    scenario = _adversary_scenario() if case == "adversary" else bundled(case)
    if noisy:
        scenario.params = {**scenario.params, "channel": NOISY_CHANNEL}
    trace = run(scenario, protocol, 0)
    v5 = _v5_data(trace.data)
    assert _sha256(_file(5, tuple(LAYOUT), v5)) == V5_TRACE[(case, protocol, noisy)]
    v4 = _v4_data(v5)
    v4_sections = ("config", "presence", "broadcasts", "emitters", "records", "events", "outcomes")
    assert _sha256(_file(4, v4_sections, v4)) == V4_TRACE[(case, protocol, noisy)]
    assert _sha256(_v3_bytes(v4)) == V3_TRACE[(case, protocol, noisy)]
    write_trace(trace.data, tmp_path / "trace.ndjson")
    assert read_trace(tmp_path / "trace.ndjson") == trace.data


def _same_second_reports() -> Scenario:
    """A scripted report in the second in which the run logs its own report rows."""
    scenario = bundled("relay_baseline")
    report = next(e for e in scenario.events if e.kind == "report")
    scenario.events.append(ScenarioEvent(report.time, "report", {"user": report.data["user"],
                                                                  "tamper": None}))
    return scenario


# the benchmark's workloads: name -> (protocol, infected users), at 100 users,
# 5 venues and 3 days
POPULATIONS = {"venue-population": ("venue", 2), "venue-outbreak": ("venue", 30),
               "dp3t-crowd": ("dp3t", 2)}


@pytest.mark.parametrize("case,protocol", [
    *((stem, protocol) for stem in sorted(p.stem for p in SCENARIOS.glob("*.json"))
      for protocol in ("venue", "dp3t", "tracetogether")),
    ("adversary", "venue"), ("adversary", "dp3t"), ("same_second", "venue"), ("same_second", "dp3t"),
    *((f"{name}@{seed}", protocol) for name, (protocol, _) in POPULATIONS.items() for seed in (9, 1)),
])
def test_scenario_dict_gives_back_the_scenario(case, protocol, tmp_path):
    """The scenario a trace file rebuilds from its scripted rows and ``config``
    loads as the one run, events in file order; a row the run logs itself, a
    ``report`` in the same second as a scripted one among them, is not one."""
    seed = 0
    if case == "adversary":
        scenario = _adversary_scenario()
    elif case == "same_second":
        scenario = _same_second_reports()
    elif "@" in case:
        name, seed = case.split("@")[0], int(case.split("@")[1])
        infected = tuple(f"u{i:02d}" for i in range(POPULATIONS[name][1]))
        scenario = build_population_scenario(100, 5, 3, seed, infected, name)
    else:
        scenario = bundled(case)
    write_trace(run(scenario, protocol, seed).data, tmp_path / "trace.ndjson")
    data = read_trace(tmp_path / "trace.ndjson")
    if case == "same_second":
        t = next(e.time for e in scenario.events if e.kind == "report")
        assert len([r for r in rows(data["events"]) if (r["t"], r["kind"]) == (t, "report")]) > 2
    assert Scenario.from_dict(scenario_dict(data)) == scenario
