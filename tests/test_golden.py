"""Golden CLI output: exit code and SHA-256 of stdout, pinned byte for byte.

The digests were taken from the implementation that recomputed every
report from scratch; any refactor of how a word is analyzed must leave the
text, the JSON document and the exit codes exactly as they were.  To
inspect a mismatch, run the command by hand and diff against that version.
"""
import hashlib
import io
from contextlib import redirect_stdout

import pytest

from sqcirc.cli import main

from oracles import fibonacci, thue_morse


WORDS = {
    "aababa": "aababa",
    "paper15": "abaaabaabaaaaba",
    "paper22": "baababaababbbabbabbbab",
    "abc4": "abcabcabcabca",
    "a": "a",
    "fib64": fibonacci(64),
    "tm64": thue_morse(64),
    "unary40": "a" * 40,
    "nonascii": "ñaña",
}


def commands(w: str) -> dict[str, list[str]]:
    reverse = "".join(sorted(set(w), reverse=True))
    return {
        "check": ["check", w],
        "check-json": ["check", w, "--json"],
        "check-order": ["check", w, "--order", reverse],
        "check-json-order": ["check", w, "--json", "--order", reverse],
        "classes": ["classes", w],
        "inject": ["inject", w],
        "circuits": ["circuits", w],
        "circuits-n2": ["circuits", w, "--n", "2"],
        "circuits-order": ["circuits", w, "--order", reverse],
        "squares": ["squares", w],
        "rauzy-dot": ["rauzy", w, "--n", "all", "--dot"],
    }


GOLDEN = {
    ('aababa', 'check'): (0, '6487604160f1021b87d2d07c04db1741c0bdde388565937e9377de7a9c83829b'),
    ('aababa', 'check-json'): (0, 'f55a58f1be8ac2c2eb96e2c219509eb5005f0de94576c04ca66e69f9cc9bc5c0'),
    ('aababa', 'check-order'): (0, '3a829f62112274ae62fe484b83412f82019d6fdacc0a174e123f6f81c489f2f9'),
    ('aababa', 'classes'): (0, '94cc4dc6f63d634f46ad87f85fa69cc2a02f7dab44156a1ebf99afb1dc3162e6'),
    ('aababa', 'inject'): (0, '77d2f66675e48e454b42ef3bf4f04dddcf585bb3d6755100c646d0eb3ef68af1'),
    ('aababa', 'circuits'): (0, 'decea8a4362da7306ae09daa488c00c2acaf1911a176ecf0121e89604fee7b81'),
    ('aababa', 'circuits-n2'): (0, 'a973457ba3f2ff82c02a301688cbf5413a561bd1e47ce266bd07e6faf11be74a'),
    ('aababa', 'squares'): (0, '0ea24e1693a66c8a94d228deb617318df689c1e88550c3e625ede97ca4deb7a4'),
    ('aababa', 'rauzy-dot'): (0, '8ef55c4574c8075d7597cf5af94e353efe5da64e299845053e5243a528b6b9c5'),
    ('paper15', 'check'): (0, 'd477b7faa59b34d9ff8de27285879246b317fd8aa35620d0b17966c83c38b020'),
    ('paper15', 'check-json'): (0, '4d4b2da3b667dc24b0645c64a0dd32165ddab00184e46e0d13b293f6b4ace7a3'),
    ('paper15', 'check-order'): (0, '54524475f200474bd4e2086f134f4ee18c7aa6a91e4515f9bce88b6200e866e2'),
    ('paper15', 'classes'): (0, '2654b3dffe38280e91d74664c774d43bf1fc4bd78c46a64fd9add022e253d352'),
    ('paper15', 'inject'): (0, '8d95690fd8ed2af0c166b9f8daa473203ab1086ed8865b0cb6444826fbbe8019'),
    ('paper15', 'circuits'): (0, '8c2b78e3b24d3ca733b4b2f8e7726e545017135cebc9ee7c097ef89afa871d84'),
    ('paper15', 'circuits-n2'): (0, 'be4a068e5519be07d39d22e16a7413c91c2292a0fc745259ee9132b0f7a2b4a9'),
    ('paper15', 'squares'): (0, '473f30ab57c713206b371aa7e8b2f78d30518b479f4cea06b8e2efa05262a5c9'),
    ('paper15', 'rauzy-dot'): (0, '4bed5552a04bf8f4d02bb945db087f1653fde8fd23515f1cafc152739f17422e'),
    ('paper22', 'check'): (0, '515bd3940d5c3fa0e8bbb7311311c30c70dd5feba2ac6d5d727779775a8dd4f3'),
    ('paper22', 'check-json'): (0, '8ebe06857d23ea79d9739f633867ffeb28949d4b5ceecbbc03fe783b7b0c5685'),
    ('paper22', 'check-order'): (0, '0a71da3edec0818995d009ded4aed4a864189aad35518b86aed08922f44cabd1'),
    ('paper22', 'classes'): (0, '6f6df6e8d5b70c82761bc8356fd09d5d73834159e607791642fa46d8a5d4fb11'),
    ('paper22', 'inject'): (0, '09bd727c8d14ccda42da2204fdff1d37a53cb4de0eb623142f6d89e879244d95'),
    ('paper22', 'circuits'): (0, '786fff63ec814e836cdd28558174fda03d3e826a01895df5b595a1b3b562809e'),
    ('paper22', 'circuits-n2'): (0, 'c4991573fbb0a9eff33e1ddd5879e11f511ced4e44c834f111704f5296f759f1'),
    ('paper22', 'squares'): (0, '82f97117825a5d580e9c2cc427adb2155ee0d490446550606849cf522310b7ca'),
    ('paper22', 'rauzy-dot'): (0, '16141b1b35a4b65a8cb2e39db0127e3024e0fde18828d6efe8fee24544d263a3'),
    ('abc4', 'check'): (0, '26d72dfc76833785cb56070f014f696b91ee0f4c2c55a9497576ec498e5aebf6'),
    ('abc4', 'check-json'): (0, '52136278be8e59608cff37df23421fd2aa0f8d469ae4563ecf130d03e1c233b8'),
    ('abc4', 'check-order'): (0, '8b9c61b19f29a0facaeafaeafececf8b509bcb5a21fd9e938e1e28e50917b204'),
    ('abc4', 'classes'): (0, '0bf8d0a72262d7a1823defdfebd9e04e8fcc8e18b6608311a64bc3c4aeffcfe4'),
    ('abc4', 'inject'): (0, '12cadbd3d00de297a115a57b5d51419016a89949cd06b7c2e69019cff6d16057'),
    ('abc4', 'circuits'): (0, '128d361505cf4d31ee4785054fb9b986e685f6320ece2e03e9fb7c858219eac5'),
    ('abc4', 'circuits-n2'): (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('abc4', 'squares'): (0, 'd5b6caf319648f85627526d11d881b20e6d8c4ccdcafba822d24d5d923a8dec0'),
    ('abc4', 'rauzy-dot'): (0, '687720bc4062c270c1044b9ea313e9b484540c568bbe4add7d5f561b3e229a70'),
    ('a', 'check'): (0, '498cc21447cbf75e9c57f6b67baa73e54686db7b1f74f5ef7a78d73d854aa615'),
    ('a', 'check-json'): (0, '9a8b1133b877c221dfc326ac8b484961333776254d99020f9c8c96ba4fe3b650'),
    ('a', 'check-order'): (0, '498cc21447cbf75e9c57f6b67baa73e54686db7b1f74f5ef7a78d73d854aa615'),
    ('a', 'classes'): (0, 'aff0aba74a60a6dadb3a9c4f59ad6bb85fa969604e174f27a8e0bad11072d01a'),
    ('a', 'inject'): (0, '72ad86ed5ab410c9c900ded2f2c71ef2c70fd4f3e09a86b02df9b0b702b7f046'),
    ('a', 'circuits'): (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('a', 'circuits-n2'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('a', 'squares'): (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('a', 'rauzy-dot'): (0, 'd5987b4df4ac99e0c1f00993025da74a139d06893d0d2b6c160262cc9d98ef37'),
    ('fib64', 'check'): (0, 'ed37d582ae2a380bd1ca4f59273404520af9b117a67589325f637041311e515c'),
    ('fib64', 'check-json'): (0, 'a7bb38f799de8a6170720926ad3deea91c5a3d65cefa6d212c30e88a3d7b2641'),
    ('fib64', 'check-order'): (0, '47a2c1b4f6f0bcb516c53fdfed7507335810c96b4eda8c6fee13fe4fa3a6c464'),
    ('fib64', 'classes'): (0, '0470f019cc1d5959cf65f30680a870f6f56ee936de12088d3128e269084df184'),
    ('fib64', 'inject'): (0, '7c6156fedb3532ed015da8e3f4f31c3e51de1e5f8b3b48bff6a2d1c8a5ce71e2'),
    ('fib64', 'circuits'): (0, 'e9f98b83d11998642810fb904d7b550309ea2aa6f80aa77193a19b44884a83cb'),
    ('fib64', 'circuits-n2'): (0, 'a973457ba3f2ff82c02a301688cbf5413a561bd1e47ce266bd07e6faf11be74a'),
    ('fib64', 'squares'): (0, 'c568d3a48d5057fca7b3b56c19c3938f3606e4af69e12684fa3e1cba18033a91'),
    ('fib64', 'rauzy-dot'): (0, '024765da32850c2dc87ff583ff865710cedeb8cf5871a2a609765d0921feb168'),
    ('tm64', 'check'): (0, '5736e7dfc40389686c4bc7c6bfe2303baa78c4a0e1ed456ce39862a6d61c7490'),
    ('tm64', 'check-json'): (0, '93415ed0ff4ffd44cdea6c475bcd6f3bb2b09791622496d93b25865f9d875543'),
    ('tm64', 'check-order'): (0, '0a6f51ee960e60a49c21f5640a8cc66bf41c306d20323f44c6204a4d12515f38'),
    ('tm64', 'classes'): (0, 'e3844baf0cfedbe662f795da576cbbae135dccbeb7ca1dfaa12912f98caaf62b'),
    ('tm64', 'inject'): (0, '8199c318f2c29ba47f33b3b832f443ad58d659050a75454574969eb34a78dfee'),
    ('tm64', 'circuits'): (0, 'e4f90e64392a0f4c79ac039cfe2ba91dba9db91d8f59bbc4421fae88089f399b'),
    ('tm64', 'circuits-n2'): (0, 'a973457ba3f2ff82c02a301688cbf5413a561bd1e47ce266bd07e6faf11be74a'),
    ('tm64', 'squares'): (0, '4ca7efdbdaa0eff8d8665727ba4bc61a1d95d2a7b5b6a54ade0a51abcb5841d9'),
    ('tm64', 'rauzy-dot'): (0, 'd942d7137b0232cf6e60c3aee4e148366ce5aa343d4ca35582c817bd1616b60f'),
    ('unary40', 'check'): (0, '78db8ac7c92a721180c91e37748ebbb8e25b347d6c9468a44d8d117e99d1b80d'),
    ('unary40', 'check-json'): (0, '0b602cde7d37d600ddef37a2013a8591097fc5e752663b5aeaae51daae80a000'),
    ('unary40', 'check-order'): (0, '78db8ac7c92a721180c91e37748ebbb8e25b347d6c9468a44d8d117e99d1b80d'),
    ('unary40', 'classes'): (0, 'eaffdc2f015eefbf2845f0f1458ca329e7740c0c269da689e4e52b8b42d4e39e'),
    ('unary40', 'inject'): (0, '2b259b55bb278248d0fb09aeab47df7c84f905ba41bfae04b147d7227d068908'),
    ('unary40', 'circuits'): (0, 'da464e0470571565c064a51cc45f1cecbf60ccace5ff0ad42e2085a93d1936c2'),
    ('unary40', 'circuits-n2'): (0, 'be4a068e5519be07d39d22e16a7413c91c2292a0fc745259ee9132b0f7a2b4a9'),
    ('unary40', 'squares'): (0, 'e2a826574d7dce4964c53cee37d8d40d5b2975ce0a030416488951396ea1064d'),
    ('unary40', 'rauzy-dot'): (0, '5f5b2c9ee33dcfdf32385b0bdc6b99c7b4de1bc762b3cfd54328fecc9dc7c4ae'),
    ('nonascii', 'check'): (0, '4a7199265c45f276f982337df73a5ebae8f53f4a28cb991fc317aab13afc41be'),
    ('nonascii', 'check-json'): (0, '300ff63021b141dbebce1b54e388f8a1f4fb8d746de2ed585fbc141591cef351'),
    ('nonascii', 'check-order'): (0, '4fa0bc760c41b3cece40d31c41edb179dc02260a837f0ae4b74a30aef6ba7a8a'),
    ('nonascii', 'classes'): (0, 'a43c3ba05c22dc48971c156715174aba370c31da7d94e4477ec492ff0ea196dc'),
    ('nonascii', 'inject'): (0, '72fc6287e736de8988c6d4a7d9aab463f1f1199e4307926824d4359e3bfada67'),
    ('nonascii', 'circuits'): (0, '2d84225160dcf741630b45c0ac8da795225fb7520a72daebfb2d907fc1ac645c'),
    ('nonascii', 'circuits-n2'): (0, '2d84225160dcf741630b45c0ac8da795225fb7520a72daebfb2d907fc1ac645c'),
    ('nonascii', 'squares'): (0, '2994dc160ac8e5063952393576cfcf7352770e02cb5a26f382a966e10e0952e5'),
    ('nonascii', 'rauzy-dot'): (0, '3461705e7432d1930257ab43c1f5ae127d67b34ecb405ef0a56c5213265f54c9'),
    # check --json --order pins maximal_edge under a non-natural order
    ('aababa', 'check-json-order'): (0, '09b1d72b9c66d74330190d34f6b809d40cf661127aaf3b97a6131c39409982da'),
    ('paper15', 'check-json-order'): (0, 'e06de799e982bc2a11a3deb64dbef363bbb7f519c150632c1bf2820ce895dd6e'),
    ('paper22', 'check-json-order'): (0, '82a202abd3ce9b8d363e6fea73c5b1ff5a7494453d6e7dba311c6398e2e0179e'),
    ('abc4', 'check-json-order'): (0, '2aa5c28e9fb61edfc0186fa18500e533125db8b53ef61afe09592df5238b6dba'),
    ('a', 'check-json-order'): (0, '9a8b1133b877c221dfc326ac8b484961333776254d99020f9c8c96ba4fe3b650'),
    ('fib64', 'check-json-order'): (0, '43c74ec5eb19fb1208ea562bcb3229410a4e68fa5357341c315a83550b568df8'),
    ('tm64', 'check-json-order'): (0, 'c76bba96c84d810e8be1272cd262dea7e71acf0d74a67f13d7f48b0dd465a220'),
    ('unary40', 'check-json-order'): (0, '0b602cde7d37d600ddef37a2013a8591097fc5e752663b5aeaae51daae80a000'),
    ('nonascii', 'check-json-order'): (0, 'f5a1bfa7d279164e6413fad261876b35ffc58b1b89a748b6c9d2b553ffb78609'),
    # circuits --order sorts each order's circuits by maximal edge under it
    ('aababa', 'circuits-order'): (0, 'c62a76a5e9916f3e0369b9249bfa319b31be2468ab17a91752bc5cea4f89a531'),
    ('paper15', 'circuits-order'): (0, '93d377b925f48ccb2f214be03dcc97b7477d70cdd85099b4ba1e23e724060336'),
    ('paper22', 'circuits-order'): (0, 'c791e8b591afd10e53099b2c1cb380e4a95fd936ccdb3df13477445459204cd2'),
    ('abc4', 'circuits-order'): (0, 'c934c68458f5612662cd24ec072aa1c191d5c7af597ebeb582743c2823ad41c3'),
    ('a', 'circuits-order'): (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('fib64', 'circuits-order'): (0, '5282e8630c6b78dbbda8c89eaca94e3588717f5251dc4cabeec5ffd26e27b451'),
    ('tm64', 'circuits-order'): (0, 'bf86b7636f9b9b439747e0d7ba8d0e2ca5df923fdc06ccb1f834fd8b6c83ae81'),
    ('unary40', 'circuits-order'): (0, 'da464e0470571565c064a51cc45f1cecbf60ccace5ff0ad42e2085a93d1936c2'),
    ('nonascii', 'circuits-order'): (0, '42c08bb93d567b7bfc6b83ffcf6831b6e4af1335bd8a2c61c1804af54ffc6adc'),
}

SEARCHES = {
    "binary9": (["search", "--alphabet", "2", "--max-len", "9"],
                (0, '0af963b56dd86af09dc59e1b76769615a8cac734c62736783cba15b6009d8dd1')),
    "ternary6-jobs2": (["search", "--alphabet", "3", "--max-len", "6", "--jobs", "2"],
                       (0, '54cb695961b771d978ecf363c7459966da2c01e44b431d231567a595f402dad7')),
}


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


CASES = [(name, cmd) for name in WORDS for cmd in commands("ab")]


@pytest.mark.parametrize("name,cmd", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_word_command(name, cmd):
    assert run(commands(WORDS[name])[cmd]) == GOLDEN[(name, cmd)]


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search(name):
    argv, expected = SEARCHES[name]
    assert run(argv) == expected
