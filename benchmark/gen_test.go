package main

import "testing"

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, other := generate(w, 7), generate(w, 7), generate(w, 8)
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("%s: seed 7 generated different inputs twice", w.name)
		}
		if a.fingerprint() == other.fingerprint() {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w.name)
		}
		if len(a.payloads) != payloadPool || len(a.payloads[0]) != w.payloadBytes {
			t.Errorf("%s: %d payloads of %d bytes, want %d of %d", w.name, len(a.payloads), len(a.payloads[0]), payloadPool, w.payloadBytes)
		}
	}
	kv := generate(workloadByName(wlKVSync), 7)
	if len(kv.keys) != kvKeys || len(kv.keyOrder) != 2 || len(kv.keyOrder[1]) != kvKeys {
		t.Errorf("lan-kv-sync: %d keys, %d key orders", len(kv.keys), len(kv.keyOrder))
	}
}
