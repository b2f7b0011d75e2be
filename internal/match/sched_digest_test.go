package match

import (
	"strconv"
	"testing"

	"popstab/internal/prng"
)

// schedulerDigests holds SHA-256 digests of Pairing.Nbr (nbrDigest) for the
// well-mixed schedulers, keyed name/n. Each scheduler samples the sizes of
// schedulerSizes in order into one reused Pairing, so the trailing
// "/shrink" sample runs over buffers a larger sample left behind: every
// stale entry must be overwritten. The digests were recorded while Uniform,
// Full and Sequential still cleared the pairing with Reset before linking,
// so they pin the pairings across the change to a single linking pass.
var schedulerDigests = map[string]string{
	"uniform(0.25)/0":           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"uniform(0.25)/1":           "ad95131bc0b799c0b1af477fb14fcf26a6a9f76079e48bf090acb7e8367bfd0e",
	"uniform(0.25)/2":           "12a3ae445661ce5dee78d0650d33362dec29c4f82af05e7e57fb595bbbacf0ca",
	"uniform(0.25)/3":           "8688d249e9d047b4fc2fb89ce05afe9ec89252ffccdd969de6eef260dd7ffb21",
	"uniform(0.25)/17":          "c9da07572731bd4223ada3886c67d6e6a7f8509af42de8fb70bb75357794a3b5",
	"uniform(0.25)/4096":        "a8e74f9e95a9c21804d6859e6285715fd30b1c60a39232d6cde65815cc99ace1",
	"uniform(0.25)/65536":       "ee56b3bf69963f2575d8ba43acf2900593987e5792128d9cac80266fc1906606",
	"uniform(0.25)/17/shrink":   "c9da07572731bd4223ada3886c67d6e6a7f8509af42de8fb70bb75357794a3b5",
	"uniform(0.50)/0":           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"uniform(0.50)/1":           "ad95131bc0b799c0b1af477fb14fcf26a6a9f76079e48bf090acb7e8367bfd0e",
	"uniform(0.50)/2":           "12a3ae445661ce5dee78d0650d33362dec29c4f82af05e7e57fb595bbbacf0ca",
	"uniform(0.50)/3":           "8688d249e9d047b4fc2fb89ce05afe9ec89252ffccdd969de6eef260dd7ffb21",
	"uniform(0.50)/17":          "c92758205f24cbffd3b297fc3d355dc2c1e1429a0849731ff99c6299ce927449",
	"uniform(0.50)/4096":        "ba6568e8d06837ab374d807758b4481d2621ebcc6be107c06b95b4ae626f074a",
	"uniform(0.50)/65536":       "c5e850a3ede0dc79390a20b7c009c33ed80b710b4edd83a2698fc764f1bc764f",
	"uniform(0.50)/17/shrink":   "c92758205f24cbffd3b297fc3d355dc2c1e1429a0849731ff99c6299ce927449",
	"uniform(1.00)/0":           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"uniform(1.00)/1":           "ad95131bc0b799c0b1af477fb14fcf26a6a9f76079e48bf090acb7e8367bfd0e",
	"uniform(1.00)/2":           "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
	"uniform(1.00)/3":           "1016aafd4f7b762eec46c2f8618b9e8ecae73c7e106fd3f6675863c5e6ea4cb0",
	"uniform(1.00)/17":          "1585bec3f4a6d8279ed7fb940697ed9531c278be4f0f95bc24e00cc1cfc01e56",
	"uniform(1.00)/4096":        "29f118dc7b91f55a3e50ba17bc8a9865b3914c8c25938f246ed8c64337b4f53b",
	"uniform(1.00)/65536":       "5c5ceb518d6e9888d1a642f5175ba5b3ef69613d26f22a1527c7a919e6b409f5",
	"uniform(1.00)/17/shrink":   "1585bec3f4a6d8279ed7fb940697ed9531c278be4f0f95bc24e00cc1cfc01e56",
	"full/0":                    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"full/1":                    "ad95131bc0b799c0b1af477fb14fcf26a6a9f76079e48bf090acb7e8367bfd0e",
	"full/2":                    "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
	"full/3":                    "1016aafd4f7b762eec46c2f8618b9e8ecae73c7e106fd3f6675863c5e6ea4cb0",
	"full/17":                   "1585bec3f4a6d8279ed7fb940697ed9531c278be4f0f95bc24e00cc1cfc01e56",
	"full/4096":                 "29f118dc7b91f55a3e50ba17bc8a9865b3914c8c25938f246ed8c64337b4f53b",
	"full/65536":                "5c5ceb518d6e9888d1a642f5175ba5b3ef69613d26f22a1527c7a919e6b409f5",
	"full/17/shrink":            "1585bec3f4a6d8279ed7fb940697ed9531c278be4f0f95bc24e00cc1cfc01e56",
	"sequential/0":              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"sequential/1":              "ad95131bc0b799c0b1af477fb14fcf26a6a9f76079e48bf090acb7e8367bfd0e",
	"sequential/2":              "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
	"sequential/3":              "1016aafd4f7b762eec46c2f8618b9e8ecae73c7e106fd3f6675863c5e6ea4cb0",
	"sequential/17":             "0083e1f360b9bf46c21dcbe94a68f7ca736be726a739fcb0ec853c2131712cf8",
	"sequential/4096":           "28af3568616d6e04c9b770cf88db39b942a1f191eb0bc9d742ef9e9a63618d05",
	"sequential/65536":          "f15580498ea53f1a27fa7a6214baaf7098eb94b2a1fcd6704885f73a301b132c",
	"sequential/17/shrink":      "0083e1f360b9bf46c21dcbe94a68f7ca736be726a739fcb0ec853c2131712cf8",
	"bernoulli(0.50)/0":         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"bernoulli(0.50)/1":         "ad95131bc0b799c0b1af477fb14fcf26a6a9f76079e48bf090acb7e8367bfd0e",
	"bernoulli(0.50)/2":         "12a3ae445661ce5dee78d0650d33362dec29c4f82af05e7e57fb595bbbacf0ca",
	"bernoulli(0.50)/3":         "1016aafd4f7b762eec46c2f8618b9e8ecae73c7e106fd3f6675863c5e6ea4cb0",
	"bernoulli(0.50)/17":        "de73d47f77559e5acd8d4cb9e152614ce74bdba8ded504a46baa11dc2e87a748",
	"bernoulli(0.50)/4096":      "2ef3baaaa47a9a9736b196282375cacd4fe29752a78121d485c54b1697b88975",
	"bernoulli(0.50)/65536":     "c51177e00720410bfae0fcb69fb39863bb83b0b286503457303e7f41e9ea823b",
	"bernoulli(0.50)/17/shrink": "de73d47f77559e5acd8d4cb9e152614ce74bdba8ded504a46baa11dc2e87a748",
}

// schedulerSizes is the sampling sequence of TestSchedulerPinnedDigests; the
// last entry is the shrink sample.
var schedulerSizes = []int{0, 1, 2, 3, 17, 4096, 1 << 16, 17}

// TestSchedulerPinnedDigests checks every pinned well-mixed pairing. On a
// mismatch it logs the whole table as recomputed, ready to paste after an
// intentional change.
func TestSchedulerPinnedDigests(t *testing.T) {
	scheds := []Scheduler{
		Uniform{Gamma: 0.25}, Uniform{Gamma: 0.5}, Uniform{Gamma: 1},
		Full{}, Sequential{}, Bernoulli{Participate: 0.5},
	}
	var keys []string
	got := map[string]string{}
	for _, s := range scheds {
		var p Pairing
		for i, n := range schedulerSizes {
			key := s.Name() + "/" + strconv.Itoa(n)
			if i == len(schedulerSizes)-1 {
				key += "/shrink"
			}
			s.Sample(n, prng.New(uint64(n)+1), &p)
			if len(p.Nbr) != n {
				t.Fatalf("%s: pairing over %d agents", key, len(p.Nbr))
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			d := nbrDigest(p.Nbr)
			keys = append(keys, key)
			got[key] = d
			if want := schedulerDigests[key]; d != want {
				t.Errorf("%s: digest %s, want %s", key, d, want)
			}
		}
	}
	if t.Failed() {
		for _, k := range keys {
			t.Logf("%q: %q,", k, got[k])
		}
	}
}
