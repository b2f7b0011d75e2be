package match

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"strconv"
	"testing"

	"popstab/internal/population"
	"popstab/internal/prng"
)

// pinnedDigests holds SHA-256 digests of Pairing.Nbr (little-endian int32
// words) for every gallery matcher over the density shapes of
// shapePositions and a few tiny populations, plus one SmallWorld probe
// sample and one adversarially rewired sample, keyed name/shape/n. They
// were recorded before the pipeline moved its candidate search and greedy
// walk into CSR-slot space, so they pin the pairings across that change and
// any later one: the worker-count tests compare a matcher only with itself
// and cannot catch a cross-commit drift.
var pinnedDigests = map[string]string{
	"torus/uniform/8192":        "3ddb1e06c709ede82ca4a2445caad02d1feaeeec63c169e5f2dd3b5edda25385",
	"torus/patchy/8192":         "2b8451f475d372edec1564a3ed6139b9f224aed5ed7021791c6aa616b8820381",
	"torus/clustered/2048":      "c660f7a7930c906599d9018e94a10b67405ac7b40c560e34c9da9ec175ecf577",
	"torus/onepoint/2048":       "02344ad7811cfc7438a87c20de85ae15ab2215504af3376e6fc9b1550405d854",
	"torus/emptyball/2048":      "dd8058faffa66f8f324acfc9685ee519215e5699cd2db226c064872e7979ca4a",
	"torus/uniform/2":           "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
	"torus/uniform/3":           "3aaf0ffee0d110409666e9f75adb570b1559a259f1f0038cd6a3354e916756ba",
	"torus/uniform/17":          "51603854de84946ee288112581ed00f159c121ee7a22c99eaff666045e1e163f",
	"torus/uniform/100":         "e0e1cc490ec91f5f119673ac3bff799c3201e900792abd23eeec18b619c3316e",
	"ring/uniform/8192":         "311a46d6ac65d2aa93e0d5296fbb5da2caf50961e9850c4297dd59ed4fa2d024",
	"ring/patchy/8192":          "695c11de612c8c8a308ab8043ebec4dab23ae505420135596e5a29e4337fe46d",
	"ring/clustered/2048":       "32a4b9defe7c0a260bb4c709b1b7c42da63d9d0df6558915f16c382185c5ca51",
	"ring/onepoint/2048":        "02344ad7811cfc7438a87c20de85ae15ab2215504af3376e6fc9b1550405d854",
	"ring/uniform/2":            "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
	"ring/uniform/3":            "3aaf0ffee0d110409666e9f75adb570b1559a259f1f0038cd6a3354e916756ba",
	"ring/uniform/17":           "ca6b3ef7683e357095994ee9e4549b5d5cb5a9b1065c75eaa47fce2eb8b03766",
	"ring/uniform/100":          "8d8b538d96b4ef7b5afbd9cbf4c95bedfeaf0b1e7a651123e3038e9fb7fc3c74",
	"grid/uniform/8192":         "37171541a6580e066ca1c11981d80b826b33161cb62b15afe4c460cd66317e8f",
	"grid/patchy/8192":          "2b8451f475d372edec1564a3ed6139b9f224aed5ed7021791c6aa616b8820381",
	"grid/clustered/2048":       "c660f7a7930c906599d9018e94a10b67405ac7b40c560e34c9da9ec175ecf577",
	"grid/onepoint/2048":        "02344ad7811cfc7438a87c20de85ae15ab2215504af3376e6fc9b1550405d854",
	"grid/uniform/2":            "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
	"grid/uniform/3":            "3aaf0ffee0d110409666e9f75adb570b1559a259f1f0038cd6a3354e916756ba",
	"grid/uniform/17":           "1174e7dac8d73dcbfa186d736c459c1f808fb4eca9fba5a582a20d2219880122",
	"grid/uniform/100":          "ca2e665025eb5c3533c1333516d4422cc709026db614fd1ed91a688ef3a6d662",
	"smallworld/uniform/8192":   "7d7d0938d0b73888579ae78a30510a62f32e7ce494b8801c08d49a63026cb8b4",
	"smallworld/patchy/8192":    "601516287d8a2ea57d628f44c49f81df832b113a53bef756e319d20630eac8bb",
	"smallworld/clustered/2048": "23a9b0594c9f87d83f7d516b29a47c95d8c2f09fa338750fba5aa9b0197209bd",
	"smallworld/onepoint/2048":  "6712f25ae792d00d421cbfc9dbf4c247496cea39610ffd6b8a2acb71ab2a0760",
	"smallworld/uniform/2":      "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
	"smallworld/uniform/3":      "3aaf0ffee0d110409666e9f75adb570b1559a259f1f0038cd6a3354e916756ba",
	"smallworld/uniform/17":     "854a5cbfe3565f7c10548484c263575daadf22fe944e223991595a443a0b35b7",
	"smallworld/uniform/100":    "b8ba80d6b8e04e35aae2d4089fb9fbe0ea6b11d0745abc69ff75fa303048ae9b",
	"smallworld/forced/8192":    "b573da8198244d11e9d137ecdb0692244ebf1b861be5a80ebc38f04d8d5511ac",
	"smallworld/probe/8192":     "68f9c36c8653a7f83814bdd12a1c49a6e6282b82cb00232dadbf7c096960bf86",
}

// digestCase is one pinned sample: a gallery matcher over n agents laid
// out in a density shape; shape "probe" takes a SampleProbe after one
// SampleMatch on uniform positions, and shape "forced" installs a
// RewireController that forces every SmallWorld agent onto long-range
// candidates drawn from one arc.
type digestCase struct {
	name, shape string
	n           int
}

func (c digestCase) key() string { return c.name + "/" + c.shape + "/" + strconv.Itoa(c.n) }

// digestCases enumerates the pinned cases in a fixed order.
func digestCases() []digestCase {
	var out []digestCase
	for _, name := range galleryNames {
		shapes := []string{"uniform", "patchy", "clustered", "onepoint"}
		if name == "torus" {
			shapes = append(shapes, "emptyball")
		}
		for _, shape := range shapes {
			n := 8192
			if shape != "uniform" && shape != "patchy" {
				n = 2048
			}
			out = append(out, digestCase{name, shape, n})
		}
		for _, n := range []int{2, 3, 17, 100} {
			out = append(out, digestCase{name, "uniform", n})
		}
	}
	return append(out, digestCase{"smallworld", "probe", 8192}, digestCase{"smallworld", "forced", 8192})
}

// nbrDigest is the hex SHA-256 of a pairing's little-endian int32 words.
func nbrDigest(nbr []int32) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range nbr {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sampleDigest runs case c on a fresh matcher, inline for workers 0 and on
// a pool of that many workers otherwise, and digests the pairing.
func sampleDigest(t *testing.T, c digestCase, workers int) string {
	t.Helper()
	m, pop := buildSpatial(t, c.name, c.n, 101)
	switch c.shape {
	case "probe":
	case "forced":
		m.(*SmallWorld).SetRewireController(forceAllTargeter{center: population.Point{X: 0.7}, r: 0.03})
	default:
		shapePositions(t, m, c.shape, uint64(c.n)*13)
	}
	if workers > 0 {
		defer withPool(m, workers)()
	}
	var p Pairing
	m.SampleMatch(pop, prng.New(777), &p)
	if c.shape == "probe" {
		m.(*SmallWorld).SampleProbe(pop, &p)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("%s workers=%d: %v", c.key(), workers, err)
	}
	return nbrDigest(p.Nbr)
}

// TestSpatialPinnedDigests checks every pinned pairing inline and on pools
// of 1, 2, 3 and NumCPU workers. On a mismatch it logs the whole table as
// recomputed, ready to paste after an intentional change.
func TestSpatialPinnedDigests(t *testing.T) {
	got := map[string]string{}
	for _, c := range digestCases() {
		for _, w := range []int{0, 1, 2, 3, runtime.NumCPU()} {
			d := sampleDigest(t, c, w)
			got[c.key()] = d
			if want := pinnedDigests[c.key()]; d != want {
				t.Errorf("%s workers=%d: digest %s, want %s", c.key(), w, d, want)
			}
		}
	}
	if t.Failed() {
		for _, c := range digestCases() {
			t.Logf("%q: %q,", c.key(), got[c.key()])
		}
	}
}

// TestSpatialTinyPopulationUnmatched pins the n < 2 case: a Pairing reused
// from a larger sample ends all-Unmatched.
func TestSpatialTinyPopulationUnmatched(t *testing.T) {
	for _, name := range galleryNames {
		for _, n := range []int{0, 1} {
			m, pop := buildSpatial(t, name, 64, 3)
			var p Pairing
			m.SampleMatch(pop, prng.New(4), &p)
			for pop.Len() > n {
				pop.DeleteSwap(pop.Len() - 1)
			}
			m.SampleMatch(pop, prng.New(5), &p)
			if len(p.Nbr) != n {
				t.Fatalf("%s n=%d: pairing over %d agents", name, n, len(p.Nbr))
			}
			for i, v := range p.Nbr {
				if v != Unmatched {
					t.Errorf("%s n=%d: agent %d matched with %d", name, n, i, v)
				}
			}
		}
	}
}
