package ckks

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/ring"
)

// goldenKeySwitchHashes pins the SHA-256 of every key-switching op's
// output at a fixed seed. The inner-product kernel, the ModUp/ModDown
// constants and the worker split may all be rewritten, but any rewrite
// must reproduce these bits exactly: the key-switch arithmetic is exact
// modular arithmetic, so a changed hash is a changed result, not noise.
var goldenKeySwitchHashes = map[string]string{
	"KeySwitch": "9b20b69f642354550ba52a830deb95a8e729da89280967f720e68746b8d8568b",
	"MulRelin":  "1143f2bb8fb1d8c3bd9422f7aaccdb157ef2f3c29aba65aa9643a6cc7e6fe821",
	"Rotate":    "8fdca2035083050d0a6b045181173988741407105193b6667090681606917eaa",
	"InnerSum":  "d833063dadf8cda8522b4f17be8cb1290ea1d704df1ff20d0d47fd8408b172b5",
}

// TestGoldenKeySwitchHashes evaluates KeySwitch, MulRelin, Rotate and
// InnerSum on seeded inputs and compares their serialized outputs with
// goldenKeySwitchHashes. The plaintexts pass through the float64 encoder,
// whose rounding is pinned on amd64 (other architectures may fuse
// multiply-adds), so the hashes are only checked there.
func TestGoldenKeySwitchHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64 (GOARCH=%s)", runtime.GOARCH)
	}
	tc := newTestContext(t)
	params := tc.params
	n := params.Slots()
	vals := func(phase int) []complex128 {
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(float64((i*7+phase)%13)/13-0.5, float64((i*5+phase)%11)/11-0.5)
		}
		return v
	}
	ctA := tc.encSk.Encrypt(tc.enc.Encode(vals(1)))
	ctB := tc.encSk.Encrypt(tc.enc.Encode(vals(2)))

	rlk := tc.kg.GenRelinearizationKey(tc.sk, false)
	gks := tc.kg.GenRotationKeys([]int{1, 2, 4, 8, 5}, tc.sk, true)
	ev := NewEvaluator(params, &EvaluationKeySet{Rlk: rlk, Galois: gks})

	got := map[string]string{}
	level := params.MaxLevel()
	p0, p1 := ev.KeySwitch(level, ctA.C1, &rlk.SwitchingKey)
	got["KeySwitch"] = hashPolys(t, p0, p1)
	got["MulRelin"] = hashCiphertext(t, ev.MulRelin(ctA, ctB))
	got["Rotate"] = hashCiphertext(t, ev.Rotate(ctA, 5))
	got["InnerSum"] = hashCiphertext(t, ev.InnerSum(ctB, 16))

	for _, op := range []string{"KeySwitch", "MulRelin", "Rotate", "InnerSum"} {
		if got[op] != goldenKeySwitchHashes[op] {
			t.Errorf("%s output hash %s, want %s", op, got[op], goldenKeySwitchHashes[op])
		}
	}
}

func hashCiphertext(t *testing.T, ct *Ciphertext) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func hashPolys(t *testing.T, ps ...*ring.Poly) string {
	t.Helper()
	var buf bytes.Buffer
	for _, p := range ps {
		if _, err := p.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}
