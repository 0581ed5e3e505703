"""Frozen bundle bytes on the hierarchy fixture.

One ``run --jobs 1`` for each of ``OC``, ``OC+partof`` (the child is also
part of the root), ``OC+PP1`` (a given pair predicate, bound once per run),
``OC+PP2`` (a learned pair predicate, so fold models hold two weight
blocks), ``OC+DPP1`` and ``OC+DPP2``, under both constraint scopes (under
``all`` every fold trains against the one rule set grounded for the run)
and all three t-norms, all on the expression kernel; and one ``OC`` run on
each of the domain, diffusion and precomputed kernels.  The sha256 of the
fold-0 model, both prediction files and the metrics report are pinned, with
the dataset directory masked out of the echoed paths: any change to what a
run computes or how it writes it, down to the last bit of a weight, fails
here.

The DPP rule's disjunction ranges over the cut's biological-process terms,
so the DPP configs put the fixture's chain in that namespace: their one DPP
rule has three disjuncts, one per cut term.  The diffusion graph holds a
reversed duplicate, a self-loop and an edge leaving the dataset, and the
precomputed Gram lists its ids in another order than the dataset's.
"""
import hashlib
import os

import pytest

import hierarchy_fixture
from fungo import cli

FILES = ("fold_0/model.txt", "predictions.tsv", "bound_predictions.tsv", "metrics.txt")

# (rules, constraint scope, t-norm, kernel) -> {file: sha256}; a missing file hashes as None
FROZEN = {
    ("OC", "unsupervised", "minimum", "expression"): {
        "fold_0/model.txt": "2f6ac05c2bad90d38d1e68ef285d7c990908d40f848b80434df007f8b83355cf",
        "predictions.tsv": "c836b8924d9c240f56a685f11cb80895512140dc077d4811a04cf2f098c50d15",
        "bound_predictions.tsv": None,
        "metrics.txt": "428fa656a7e05a42d44dd400d7ec0062c5bd9f50ccf0a9975760373c2d278147",
    },
    ("OC", "unsupervised", "product", "expression"): {
        "fold_0/model.txt": "0539a80f1d06bd143ea71197f0a68c09c5a353895e433e6254844c6d5582197c",
        "predictions.tsv": "31cff7fb273429fbe46ff65f5cc49371b7a799488219ffd34f4f2e0f524017a9",
        "bound_predictions.tsv": None,
        "metrics.txt": "e662563d0e209818e646249023843618e71d76b1f597132bef41d63dd19ff5c0",
    },
    ("OC", "unsupervised", "lukasiewicz", "expression"): {
        "fold_0/model.txt": "1d56565e9e6a38daf2cad1f1eaae706d40d6a337e9aed10a38a2c23d796d54cf",
        "predictions.tsv": "6261a2711d842b4b543a74e6547afbe0b73d8db7b0564d8facf5a7f67c4cf215",
        "bound_predictions.tsv": None,
        "metrics.txt": "4c78ad2860ef5ed289e029b5314360c3e96e266d23a95b41ab5dfed41a2eb9c4",
    },
    ("OC", "all", "minimum", "expression"): {
        "fold_0/model.txt": "006a653c5d69ba8bb1a6a1aacf5b990c6e05b4d95613d9df0a5bad5a9c9f69a9",
        "predictions.tsv": "a51e11def79d61c7b4c0b55d99acaf47ec23c53c001775491100240c3b698e28",
        "bound_predictions.tsv": None,
        "metrics.txt": "21be3ac2812f24be1f61e992d7e1582a3c194a6a154b7a89cec5dd295049d45c",
    },
    ("OC", "all", "product", "expression"): {
        "fold_0/model.txt": "d69bd8f1500e86f45910214475f5c09e5a647f9bc8decfb7b5e700dd1987a7a6",
        "predictions.tsv": "ef39cd37e639a066c76b5eac77b9690eb10fb6fb362403b1e5f87162a88ba4f9",
        "bound_predictions.tsv": None,
        "metrics.txt": "4771482ca6c3a04ebec21241c64be3ec17cbe9efd302209a642c48e4864ea351",
    },
    ("OC", "all", "lukasiewicz", "expression"): {
        "fold_0/model.txt": "56368f401d42b5f1256e3c8352360c261aaccb7b2d4235b5dd70b6852b0d4705",
        "predictions.tsv": "627d2d76a9dc94cf9f0c0fa0e97a25966b83be1bd2867535526d2086cd7c362a",
        "bound_predictions.tsv": None,
        "metrics.txt": "2ac52586938795a11bc43c90e2f3f74ab04ff4e5ce5bbeb4dadf687743569081",
    },
    ("OC+PP1", "unsupervised", "minimum", "expression"): {
        "fold_0/model.txt": "1d5474109b41d24201b9dd7f314d7d6a7aac0f5490921b44dcc57b94424e482e",
        "predictions.tsv": "8bccf948d96be953297e5bcdf748592bd4e4b78786ca4e3e3ff84a7300f277e9",
        "bound_predictions.tsv": None,
        "metrics.txt": "428fa656a7e05a42d44dd400d7ec0062c5bd9f50ccf0a9975760373c2d278147",
    },
    ("OC+PP1", "unsupervised", "product", "expression"): {
        "fold_0/model.txt": "446273c9d85f7c796df7a51a86c1c794e22fc41e3a3da5013d10b6fad92a36e1",
        "predictions.tsv": "71d275954ccabdbd97206198406963c1f26414ef5cd361dd1191ecfc78914c77",
        "bound_predictions.tsv": None,
        "metrics.txt": "e662563d0e209818e646249023843618e71d76b1f597132bef41d63dd19ff5c0",
    },
    ("OC+PP1", "unsupervised", "lukasiewicz", "expression"): {
        "fold_0/model.txt": "1630d61432c2cf1b7860e30b5aedd89e6f5981d7fa02997d2b072d081904284d",
        "predictions.tsv": "174a9d5d71f3762e1eeae8afdb3de7bb2b08fdd6d09e5420c427b929241ebd86",
        "bound_predictions.tsv": None,
        "metrics.txt": "05be196a4e94a3b1d098baa046a834eab53fb1aa49a57dad39123642115534bc",
    },
    ("OC+PP1", "all", "minimum", "expression"): {
        "fold_0/model.txt": "78aac8d2340ad21ada8865380dd61d99f1bc46ee07c79bdec58b68ae0bdb3b50",
        "predictions.tsv": "a0513bbec0ffed5aa3ba76ab8c3219db7a23d223b32d810e28f26c221b2eaf58",
        "bound_predictions.tsv": None,
        "metrics.txt": "48715326c0bb2d2e74f57b7946bf6d414a2baf84cdaf24e3b92964e87662b925",
    },
    ("OC+PP1", "all", "product", "expression"): {
        "fold_0/model.txt": "f6b4b1475daf0a2a83aae52367e067ab242e663bfe32b6fb0a26ee30cb9e50af",
        "predictions.tsv": "f366b95f82330bb4aa32a410f5bd2e808093982fe4c1c539f0da2a9752265515",
        "bound_predictions.tsv": None,
        "metrics.txt": "4771482ca6c3a04ebec21241c64be3ec17cbe9efd302209a642c48e4864ea351",
    },
    ("OC+PP1", "all", "lukasiewicz", "expression"): {
        "fold_0/model.txt": "0359b4513a87b9468c17c7d424c990e52ffb666f771c51a3fa89e5ceb85a692f",
        "predictions.tsv": "1eb8aea16a716aca660a912339a05897a7049cad75607b3025a53f9ebc3dc89b",
        "bound_predictions.tsv": None,
        "metrics.txt": "e66651103e86690eac87c167d479a994ff4960020c207be67a2c04d30b32d86e",
    },
    ("OC+PP2", "unsupervised", "minimum", "expression"): {
        "fold_0/model.txt": "58696e0e0da9dcde80fb9f085fe0dae339197b2ce5a39401c6780d74c90b27a4",
        "predictions.tsv": "8bccf948d96be953297e5bcdf748592bd4e4b78786ca4e3e3ff84a7300f277e9",
        "bound_predictions.tsv": "3610e7f86a33ca1523c5ae506a743a461fec81ce43717f4b4c0f1ea6ae9c7e1a",
        "metrics.txt": "b0cf85433c1f31def6f64bb86cc829db63cfa9600bbe4e0a21adaae4fdee8ab1",
    },
    ("OC+PP2", "unsupervised", "product", "expression"): {
        "fold_0/model.txt": "bd6ccdca25da5dba5dc22a0044d42786bf0cb7f253f29833a37afd04b3cddee4",
        "predictions.tsv": "d07e35bd231d426dc8923db61457b1c5f2b5c6d631d3f6a9180f290bcc086731",
        "bound_predictions.tsv": "a7cac2cf21d8550056f0a73f5554217306155a5ba03b9353c2547d0352b2aae3",
        "metrics.txt": "05daa2fb2b1072e96db478f5c9d1b8080cb73088dd990ddd2bd289ff60b8ccbb",
    },
    ("OC+PP2", "unsupervised", "lukasiewicz", "expression"): {
        "fold_0/model.txt": "a9b915b69e6a9c4b084b1fb883a53c09bb7e8cf07bcba2d7cd72e6d6afd937dd",
        "predictions.tsv": "d446c51348b97cf2282fa629d72faab34bd5231c2ce7c845d1ff311ff1a0b051",
        "bound_predictions.tsv": "95f319e4fe50bcb26665e4ae5970974736cc8695d8e9f26beee4bd5d3519cf04",
        "metrics.txt": "df94329bfb71f3bd9468753cbf9151cadcf3db76e168da2197c1fb155001139c",
    },
    ("OC+PP2", "all", "minimum", "expression"): {
        "fold_0/model.txt": "13f6c13f91607cec2c8f8213e5097e9d90a017fb1466928d366f283033ed581f",
        "predictions.tsv": "87307c04810873b5ab3e3325716e963a90bbcb0acf0ae33d6d27fe3dc66b8bc0",
        "bound_predictions.tsv": "060109152ce83d037d51ac1989035d393794fa85c5e139eb2a1d75adb40c7349",
        "metrics.txt": "582791776e9c097100e125b8ef236be687eb00c9ff7afef16d275855047b04b8",
    },
    ("OC+PP2", "all", "product", "expression"): {
        "fold_0/model.txt": "0a82f0f2bff3685c0baa66026877369a5f062506881b7799dc850599a7a245a9",
        "predictions.tsv": "eff3609dd391c6011f6f235bd8b3b9bbeb36d82dbcb45735a1c1a052eaaa3532",
        "bound_predictions.tsv": "f63556f09735453039c014628d712be95f9672c4db9bbb23dda0cde73ca25cac",
        "metrics.txt": "f2f41eca3c551457c794a153db233ce005c5ec483a07dd248b38d689a8d47871",
    },
    ("OC+PP2", "all", "lukasiewicz", "expression"): {
        "fold_0/model.txt": "15a02a5ec06afa513ad565e78aa3c7bc2ae55915e037599e6745529de27cf951",
        "predictions.tsv": "625c1bfc97ddd34de4ceb9b8ac1d60fcea640f433ccd19693fa55c975537c034",
        "bound_predictions.tsv": "459768608b879bd522be29d30a138c46fd0ce452332eab0d615afc09893cae79",
        "metrics.txt": "c52674219c1eaed1ca200855264c84eace72e6c7e5a59d97d34a4644650e5280",
    },
    ("OC+DPP1", "unsupervised", "minimum", "expression"): {
        "fold_0/model.txt": "0185da3a2016ff047b6660f4e684fd8997062ca3746cc0a29b3e655a2c59e86b",
        "predictions.tsv": "2cefdd8773b58fdd4d0793ac74eb92f5f38fb20fcf0bf5b357959451f86f7522",
        "bound_predictions.tsv": None,
        "metrics.txt": "428fa656a7e05a42d44dd400d7ec0062c5bd9f50ccf0a9975760373c2d278147",
    },
    ("OC+DPP1", "unsupervised", "product", "expression"): {
        "fold_0/model.txt": "50bf699d230d2203cacd9805138cef4bccdeb29538ae5bc109b55935bbfe57f6",
        "predictions.tsv": "393c730c428a860c8811c38c79002192df6d94648f345128ef55cafc4057fc1e",
        "bound_predictions.tsv": None,
        "metrics.txt": "e662563d0e209818e646249023843618e71d76b1f597132bef41d63dd19ff5c0",
    },
    ("OC+DPP1", "unsupervised", "lukasiewicz", "expression"): {
        "fold_0/model.txt": "dc59a68ce0882db69d7139a8fdda94817b7d2b7dcff7f34e36908da8dabc480b",
        "predictions.tsv": "08f3a39288de27986c0136a50ef97684d5ef2ed5de1f2d575ae27bacb91857b6",
        "bound_predictions.tsv": None,
        "metrics.txt": "e662563d0e209818e646249023843618e71d76b1f597132bef41d63dd19ff5c0",
    },
    ("OC+DPP1", "all", "minimum", "expression"): {
        "fold_0/model.txt": "9c37333a7909fac4399e05467e8e14086e8de50d4530e7223d5a6fe26048d713",
        "predictions.tsv": "0257e833062d53e584d052a14bb564cb46032bf2606f5efe3564203e76353e38",
        "bound_predictions.tsv": None,
        "metrics.txt": "3420fc8677ea75a188c995bd1cae89629ba59a3ffd3b4c9761f07867ef297fb1",
    },
    ("OC+DPP1", "all", "product", "expression"): {
        "fold_0/model.txt": "2ce506f3aa1b07a973b1f1651baea91f60fcae93e368dbda4f60ddccd16e0a54",
        "predictions.tsv": "c8d47a413ec849766b5a3ab01653c4e905b6d211e8be047378dca7729b932c89",
        "bound_predictions.tsv": None,
        "metrics.txt": "63f9a320ba8773c78c0b152c5f327b512b3078c0e7dd3f1d450939497747646d",
    },
    ("OC+DPP1", "all", "lukasiewicz", "expression"): {
        "fold_0/model.txt": "6ac7e3f573565012f038d2143ac7a50b14f0a5b9e76458ad64725935c0c4aa18",
        "predictions.tsv": "18d21285b2a4a552fdacea55847c79acff04b21ba2e522f02c69b2f2879a22fa",
        "bound_predictions.tsv": None,
        "metrics.txt": "0edb832a6f44780ecd2c469c737e57650c359c807f8cd5fbc8e41eda3b3b3d06",
    },
    ("OC+DPP2", "unsupervised", "minimum", "expression"): {
        "fold_0/model.txt": "57fdc64825608a3f4bcac8ccab6ef3c26102b4e23d1b724f912536a8b6563e87",
        "predictions.tsv": "2cefdd8773b58fdd4d0793ac74eb92f5f38fb20fcf0bf5b357959451f86f7522",
        "bound_predictions.tsv": "3610e7f86a33ca1523c5ae506a743a461fec81ce43717f4b4c0f1ea6ae9c7e1a",
        "metrics.txt": "b0cf85433c1f31def6f64bb86cc829db63cfa9600bbe4e0a21adaae4fdee8ab1",
    },
    ("OC+DPP2", "unsupervised", "product", "expression"): {
        "fold_0/model.txt": "998f38fee2cb4b74c2701b30299a91d6fff1861b7fc6096a9e5e7709472e9ad9",
        "predictions.tsv": "5da4df6091be678ff02d362a330676f21c121511d471ba0947c7b2629af9b580",
        "bound_predictions.tsv": "1d1da7b04b13da55f8311259588a38f0de4efc0be62754c64ebe0d12b124f77b",
        "metrics.txt": "06161dab6e1cfb7ffb6d4a4cdd985f5ce223107f3e28e90dd564d6ccb64e1fe1",
    },
    ("OC+DPP2", "unsupervised", "lukasiewicz", "expression"): {
        "fold_0/model.txt": "8c58090ab1fb8d0e6f941b6c3ee2bb7ef30be70f2264bc0df5d0b4e9c7c14a5f",
        "predictions.tsv": "2c4c236ead439346830d197bb48e59231c91e51cd8d14e3eac8ed1cfac4c35be",
        "bound_predictions.tsv": "d0b5143ce798a52e9ff87ce75d4f6db2ff2b8c23f626dc84c481952e9c34bdae",
        "metrics.txt": "77ef33809b5f66b33513c93276485863221a060c0105cba67047c3a8f6807b2c",
    },
    ("OC+DPP2", "all", "minimum", "expression"): {
        "fold_0/model.txt": "33ee5448dab58841ac835f2664cff7e7a2edf1a0f6fa7c2b41ae636e56d65e08",
        "predictions.tsv": "b8b4854f8612225a06942dc7be85f1de1f0ccbc2fac677d465fa473f7af71e70",
        "bound_predictions.tsv": "77418a529d6b1d97016ac7fdcc96efae43f2904fbe5c20f5f8854aa5d2abb14e",
        "metrics.txt": "c3147ca1ffb94a9e7106e3df5d04b64c5ce5bf35a55e4ff163d55a0f7b3f84ad",
    },
    ("OC+DPP2", "all", "product", "expression"): {
        "fold_0/model.txt": "07773a6d7fe99a61538c9aab2f52b640df14176a251408d22474a1fe9368fa89",
        "predictions.tsv": "43428876e8d64a232303bb3fb4363cef2f5ea1066700784807a7dc46498eaef8",
        "bound_predictions.tsv": "838c45db0edf7cabb7010853a8d794863b59b8eb0954c6b50c877a637776a2e6",
        "metrics.txt": "a5db5544a2d97fc195e9c6e45dd0ae8132f248fcb6b42debdede369465b4be3d",
    },
    ("OC+DPP2", "all", "lukasiewicz", "expression"): {
        "fold_0/model.txt": "429cd0c262a17cfbb1d03b3dfcbb956dc7b124d75469fb8ad29233d99c44d9ab",
        "predictions.tsv": "da7308c2eff001981795fe1f752609d779db58656b539bab935a598e5d519e55",
        "bound_predictions.tsv": "12595295233ee2c6ed92f03315c16ff87c8ad07353fc99d2405d0d71e0929140",
        "metrics.txt": "eab28a2594e17db8a60e933f005db3f4299a5f007d21d14f537e5d14c26f768e",
    },
    ("OC+partof", "unsupervised", "minimum", "expression"): {
        "fold_0/model.txt": "ba4a76533143059ba1df1b019f6c3be1120f4beeb3b54f6077bf78ed6b013423",
        "predictions.tsv": "cd9dd42fe300f8c7ac9ce039a06c4f8d6130a8b2730ca99d38ae4169d1dcd36e",
        "bound_predictions.tsv": None,
        "metrics.txt": "428fa656a7e05a42d44dd400d7ec0062c5bd9f50ccf0a9975760373c2d278147",
    },
    ("OC+partof", "unsupervised", "product", "expression"): {
        "fold_0/model.txt": "e628d0e73763b8b751e6b814113a05506360bce58b1105fcede69c7660ff021c",
        "predictions.tsv": "c360ca079a9b03a89049e6a657395a8e7e0ad63cf7b7f829e4254195b0093537",
        "bound_predictions.tsv": None,
        "metrics.txt": "2ac52586938795a11bc43c90e2f3f74ab04ff4e5ce5bbeb4dadf687743569081",
    },
    ("OC+partof", "unsupervised", "lukasiewicz", "expression"): {
        "fold_0/model.txt": "9f27fb496b4dff7788d9ad3ebc5fdd6e75046328deb6a993e03a2008236bd48b",
        "predictions.tsv": "2a81705e02ae7ae62b0381c765d29883d5ccd51c9c33b79a3547bc1a7f72fac4",
        "bound_predictions.tsv": None,
        "metrics.txt": "05be196a4e94a3b1d098baa046a834eab53fb1aa49a57dad39123642115534bc",
    },
    ("OC+partof", "all", "minimum", "expression"): {
        "fold_0/model.txt": "03495195ed87ead45d169c838e161a162f947e42999f7f4dc7dcffcec06fe03a",
        "predictions.tsv": "1081a36fb2f16a0b25887b13dd7c23b0236017f2ef7a1efd4a37b7f199351f22",
        "bound_predictions.tsv": None,
        "metrics.txt": "ba3cb73a935b327386831ca4c6d473360524ef050adb0b40909a4a956ce7f64e",
    },
    ("OC+partof", "all", "product", "expression"): {
        "fold_0/model.txt": "04ac70c2b0fd0b53deee30532b9d59bd39d77cd22762009364f1bfd316fe137e",
        "predictions.tsv": "e06a7e6c447bcef6d04f97437f2977fdc8e54b90455c5d9b7880ea0226c2b2e5",
        "bound_predictions.tsv": None,
        "metrics.txt": "e28abb59d83b6ad2228b6a5124ce59c515ead8ce7363072cd1dd5df7dfe24a4e",
    },
    ("OC+partof", "all", "lukasiewicz", "expression"): {
        "fold_0/model.txt": "b3802e32a3a1e8311f7d0ae48870c2e57f06f1cc46aa8af36920f886dfa0da65",
        "predictions.tsv": "32d5aba7f52090b83a3e6d720facbf5e3db233d04db79f6d1f86c81c1225a149",
        "bound_predictions.tsv": None,
        "metrics.txt": "2ac52586938795a11bc43c90e2f3f74ab04ff4e5ce5bbeb4dadf687743569081",
    },
    ("OC", "unsupervised", "minimum", "domain"): {
        "fold_0/model.txt": "ac12eece47738767906885c63c72e278cf244b921147160841a7b2071f4f9ff0",
        "predictions.tsv": "61eac38966bf55c8a1ffe53c4cfb1189d125410d8d08a47854cc2ac8741407d7",
        "bound_predictions.tsv": None,
        "metrics.txt": "377533dc54eff3cec0657349f15f23f43fb5d509028f275eaae83d9dd95514f1",
    },
    ("OC", "unsupervised", "minimum", "diffusion"): {
        "fold_0/model.txt": "80202d78d6572d76de152ec70da016d8e58c30880c4a26038dc1d6e23309bee6",
        "predictions.tsv": "d1cbb41cf7be573b9d824ac3c5648b2c110e747771939cf7965a60d507fa850f",
        "bound_predictions.tsv": None,
        "metrics.txt": "0f5c464b3dac8e4eed237447871f558d5682df0738746d0e0d6835241279cd9a",
    },
    ("OC", "unsupervised", "minimum", "gram"): {
        "fold_0/model.txt": "0f365c8ec51b18d07865bbb6976d47cca0b6d4430c1751da8189c36f037ad24b",
        "predictions.tsv": "ce96f7416b4b4fd1a8a61aae78a3b3558908e8460b00a610fac7f8cad6933b7c",
        "bound_predictions.tsv": None,
        "metrics.txt": "dea107aeb7bf56d60d38156e5e591eb0022554092a25343be51b7128fff8c632",
    },
}


def _digest(path: str, root: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    return hashlib.sha256(data.replace(os.path.abspath(root).encode(), b"<root>")).hexdigest()


def _id(rules: str, scope: str, tnorm: str, kernel: str) -> str:
    return rules + "".join(f"-{part}" for part in (scope, tnorm, kernel)
                           if part not in ("unsupervised", "minimum", "expression"))


@pytest.mark.parametrize("rules, scope, tnorm, kernel", sorted(FROZEN),
                         ids=[_id(*key) for key in sorted(FROZEN)])
def test_bundle_bytes_are_frozen(tmp_path, rules, scope, tnorm, kernel):
    root = str(tmp_path)
    namespace = "biological_process" if "DPP" in rules else "molecular_function"
    hierarchy_fixture.write_dataset(root, namespace, part_of="partof" in rules)
    hierarchy_fixture.write_pair_files(root)
    hierarchy_fixture.write_kernel_files(root)
    key, path = hierarchy_fixture.KERNEL_INPUTS[kernel]
    cfg = hierarchy_fixture.write_config(root, "out", rules=rules, ppi="ppi.tsv",
                                         pair_gram="pairs.csv", constraint_scope=scope,
                                         tnorm=tnorm, namespaces=namespace, kernel=kernel,
                                         **{key: path})
    assert cli.main(["run", "--config", cfg, "--jobs", "1"]) == 0
    out = os.path.join(root, "out")
    assert ({name: _digest(os.path.join(out, name), root) for name in FILES}
            == FROZEN[rules, scope, tnorm, kernel])
