package usecases

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// inputsGolden pins SHA-256 over every use case's generated inputs (per
// input: its length, then each value's IEEE bits, little-endian), so a
// rewrite of a generator must keep its values bit for bit.
var inputsGolden = map[string]string{
	"egpws 1":    "114a2593cc7425bb96f247b03bbb4a4373ba9d3963b50ba0058bcc3a813dbfe4",
	"egpws 2":    "1bedbba332fb9eb1cb5d8245848634809b5ba3e3ab5ab40301a9b45dae440975",
	"egpws 3":    "5c3facc30b7f4726b6e845aac9f0fda88fd5373a9890ea6d2452f2e9578c8eab",
	"egpws 4":    "fdac23398451d76ebc28ab8652549420a8852fd925b521005b412b6493f59d04",
	"egpws 9001": "0b465c777b0335d2232866a4b5b6e44e3fb24433b3d0086310c55cb9398f1c38",
	"weaa 1":     "827ba36a9d685fba10b8a68a495453911a5f5dc44578e7a7ce7a704be704b86a",
	"weaa 2":     "042cbc3cdd9abf8325801a4be4a6b94f07fdb9a6aecd32ad875b676c79102c2d",
	"weaa 3":     "c2785e55457794b3dbc45350564e1ca444fc034f409761d7a017fc9fb4c60698",
	"weaa 4":     "6697d7579bdad6bb9e26974d98f28d85ae18ac59447d67783704f1068c35235e",
	"weaa 9001":  "08bf7f29513e21897c7dcbf2657e8d252bae906a1e2ca6a68907e55dd77e97ba",
	"polka 1":    "aa2d7bce7274ebcb338e172adfe243afc3357af7ca0a626d3bc5b8faa9df0066",
	"polka 2":    "9cd0e5df09a9b81529aa67e4ac55d556ab9af5e5862b55fc705e37c6d8564f00",
	"polka 3":    "7779c80807f46a19442dd37853ff1f790165d9fab6728f77b82db2fb66474f92",
	"polka 4":    "af20aa22423f4720289c22be8bff19ee45935908fec48f0ca91b3edcdf08bd65",
	"polka 9001": "77f62ca0e89edfc3a1ffef4081a0c60763cc5736162ab214e4bbf6631b1909c8",
}

// TestInputsBitIdentical checks the generated inputs against the golden
// hashes for seeds 1–4 and 9001.
func TestInputsBitIdentical(t *testing.T) {
	for _, u := range All() {
		for _, seed := range []int64{1, 2, 3, 4, 9001} {
			h := sha256.New()
			var b [8]byte
			for _, in := range u.Inputs(seed) {
				binary.LittleEndian.PutUint64(b[:], uint64(len(in)))
				h.Write(b[:])
				for _, x := range in {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
					h.Write(b[:])
				}
			}
			key := fmt.Sprintf("%s %d", u.Name, seed)
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != inputsGolden[key] {
				t.Errorf("%s: inputs hash %s, golden %s", key, got, inputsGolden[key])
			}
		}
	}
}
