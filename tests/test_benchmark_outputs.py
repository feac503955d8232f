"""The benchmark's operations (perfbench/workloads.py, imported read-only)
print the same bytes as pinned: the sha256 of each operation's stdout plus
its report file, with the manifest timestamp pinned as the benchmark pins
it.  The sha256 of a workload's digests, concatenated in order, is the
benchmark's output_sha256 for that seed.  Every workload is pinned at seed
1, and scan, whose random phase draws from the seed, at seeds 3 and 7 as
well.  About 3 s on 2 cores."""

import hashlib
import importlib
import io
from pathlib import Path

import pytest

from heyde_lab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PINS = {
    "scan": {
        'search Z15 alpha=7': 'bce2b9f8a087871acdabfa15f2a68b90d86e9917af22151653826c00e9adc591',
        'search Z9 alpha=8': '3e8c06885d08af1edcf91a6a7b401abd34f5fee60347b65daf963ea57dddd5e1',
    },
    "check": {
        'check iid alpha=-I on (243,)': 'a80d244b8286bc7209442a0848875f96b840db3a60168fac5ad9be804bd75745',
        'check iid alpha=-I on (3, 3, 3, 3, 3)': 'bc4e1d6a4fead9897cc8ccbfcd5043649161f8e5415cd53cac455f9f0f893acd',
        'check iid alpha=-I on (9, 27)': 'fc867594a94ce0f227f63a689aa0df08cff5772015050294b786370f2fe3227f',
        'check iid in Ker(I+alpha) of order 27': '4ff74700ba78098870c778098d970e23ef4a86bb7277c5473a872e8d647204cc',
        'check uniform on Ker(I+alpha) of order 9': '98d05e53f21889dab1bc0f4f886787fbda4113f233d9c3273d048911b91c142b',
    },
    "verify": {
        'verify lemma1 seed 695724': 'fb11ec6af08680cd19e98aead2caff7b6f4b6a0f0fb37aaa6c53bfc458e2f91f',
        'verify lemma1 seed 441140': '9a2de57fb660df90d5f6302339269038179c8757efcfee2195ffd540acf4cfcf',
        'verify lemma1 seed 925768': '72bb2c8542932ded40a5034abce09cc54ed651538a4b9cacd3e2f564f4ac8448',
        'verify lemma5 seed 695724': 'dd5920e047a15b9d5ce0ac6bb4a119b58eec2dd0fbc2d4bf8735d2bb172aac69',
        'verify lemma5 seed 441140': '7b5e92cf398a9c4b85ac1c3b11b1af289f58b1a92d2801f8fa12ce5f57644ac7',
        'verify lemma5 seed 925768': '41edc86d1874df3cce4b6c054b18095ddd7bfb6ad4324bbffd913627cade1fd8',
        'verify lemma8 seed 695724': 'bf36434c86b438871d5833380df7faa9d0b622255db8e449bfd0d0f5fe491b59',
        'verify lemma8 seed 441140': '91da875548b8f16041ea32031cd78d31b1d05ef1c74978e8c395820f4e219888',
        'verify lemma8 seed 925768': '4864fd9672aae10908b250a180e1b6efe9900ab782457a6a8ac097c991b656d4',
        'verify corollary1 seed 695724': '87aebf587aa360e56fb9f2f1ce2f12e32a51fbbece3faee469b105611976c6fe',
        'verify corollary1 seed 441140': '626e4cb0a4b42fb6d6a7aa52ba6b31e8c741fc3f03122886c045ee56a5cc4654',
        'verify corollary1 seed 925768': '9753ba18731bdc13058a54be725966addf949d9d1714270f579994afb2febdc8',
        'verify corollary3 seed 695724': '29b93482ed8d39c4e0080d9d5b6de5b1903ccd6650a668d0c77a67d5ee3843b2',
        'verify corollary3 seed 441140': '3a6a1264698a4e2a4a7be7a38f9437926e643db5dc5f898ba9b71363cabb4c63',
        'verify corollary3 seed 925768': 'a675193227811871a285cdf8c8289fbf8f1c9727a2bf3b9d2542d3e548569c2d',
        'verify chain16 seed 695724': '98c8aad0cc7874b7f4085a327b756b97714f6ee2416d6403bb989950d7393d61',
        'verify chain16 seed 441140': '3d895735b47d158295ff138161d42f7736ccc89f0b2733600f81d81c9e85d12a',
        'verify chain16 seed 925768': 'e278ebd29cabbfde844d1493cb8e49c79dd5ee488c916b27e2cfddeabffa106a',
        'verify chain10 seed 695724': '051fe402e337b42ee40cd5236692714093c1de56812c5762cc6918eb0d3a6f9d',
        'verify chain10 seed 441140': 'd6b1a88a64c3d652b391456917cb0ecf20c5c8f481c137fd92039820ca5234c5',
        'verify chain10 seed 925768': '5443049b155e8709691762c948f6dd5d11cfa34568c66be1a474b62d8e7f796c',
        'verify quadratic seed 695724': '83cbb37c66204be8536a24677ca5f60a27229b2f768e524362044cef43fee61c',
        'verify quadratic seed 441140': 'e35bac7556cf86415691b4429e7fb613a51ba64052e31dab358b53f2d0123d94',
        'verify quadratic seed 925768': '330f7619cf30b00256c2ce8b056ddbfe7713c19be051b21e3694c6027cf26332',
        'verify theoremB seed 695724': '60e03cb0d97b5716d1d94791ca462394029b666674a7197d113a690523620928',
        'verify theoremB seed 441140': 'fdec376f470bf42eaf50583bb2eb567048cd375d382b4db68bdf7322b3e0e3a8',
        'verify theoremB seed 925768': '79e3e83f2df19074b072dd0669f04a2b096d0e5e8783e3706b8d613528711641',
        'verify theoremC-finite seed 695724': '0717d284b472f5e1f03fb31a821e2da5d4f71b73235df66125ba66a9096f91ec',
        'verify theoremC-finite seed 441140': 'f79943c51eb16dedc779959e10b1d262107ecbcd18aaa82272b51c60a561347a',
        'verify theoremC-finite seed 925768': 'dfd92969eea4320eef9ba88b9db42938d8568d4fbc5f32d4d282d12a61dc1e32',
    },
}


#: The scan operations' digests at more seeds of the random phase.
SCAN_PINS = {
    3: {
        'search Z15 alpha=7': '085cf30bcfc6356d99d17986bd8bc1ab5d3c154e9703db8dd42b9cef84b77038',
        'search Z9 alpha=8': '6b68a761916ae6afb9234db8ff8b28c66ff74c8668a97b36acd02ecbb93da6ac',
    },
    7: {
        'search Z15 alpha=7': '996fdea7d2a1a7c781c05c3d3e46923d684ab0958b6a2046996798e106542d51',
        'search Z9 alpha=8': 'a4600edcb737423ff17ebbe9525f59d2ab3dd78e62aa165377297fbad981f8bd',
    },
}

#: The benchmark's output_sha256 of each pinned (workload, seed).
OUTPUT_SHA256 = {
    ("check", 1): '90e62c944d043bc8f384265c48ca7218ca8f025c081f03f1ba456c6a88822391',
    ("scan", 1): '4d56a444408abd40dde8b203581709341a38439866c74ed66a4faa04bcbebb75',
    ("scan", 3): '3ffa43907eb8118a42923f7877bfcd471aae8432cde93b262b33697e842ee509',
    ("scan", 7): '1b3d68cf612445d2591d80d11c646ad437c045824a4e7b6106009e155de77a5e',
    ("verify", 1): '12f2a5f04023a96318e9f721d0d6fd190069b5cfaa358ed3730aaac46f0d1043',
}


def _digests(workload, seed, monkeypatch, tmp_path):
    """Each operation's digest, and the workload's output_sha256, at seed."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    monkeypatch.setenv("HEYDE_LAB_TIMESTAMP", "2000-01-01T00:00:00+00:00")
    monkeypatch.chdir(tmp_path)  # operations name their inputs relative to it
    digests = {}
    for op in workloads.generate(workload, seed, tmp_path):
        out = io.StringIO()
        assert cli.run(list(op.argv), out=out) == 0, op.label
        report = (tmp_path / op.out_file).read_text(encoding="utf-8") if op.out_file else ""
        digests[op.label] = hashlib.sha256((out.getvalue() + report).encode()).hexdigest()
    return digests, hashlib.sha256("".join(digests.values()).encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(PINS))
def test_benchmark_operations_print_pinned_bytes(workload, monkeypatch, tmp_path):
    digests, output_sha256 = _digests(workload, 1, monkeypatch, tmp_path)
    assert digests == PINS[workload]
    assert output_sha256 == OUTPUT_SHA256[workload, 1]


@pytest.mark.parametrize("seed", sorted(SCAN_PINS))
def test_scan_prints_pinned_bytes_on_more_seeds(seed, monkeypatch, tmp_path):
    digests, output_sha256 = _digests("scan", seed, monkeypatch, tmp_path)
    assert digests == SCAN_PINS[seed]
    assert output_sha256 == OUTPUT_SHA256["scan", seed]
