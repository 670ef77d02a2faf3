package rl

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

func TestMLPJSONRoundTrip(t *testing.T) {
	m := MustNewMLP([]int{4, 8, 3}, 11)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var restored MLP
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, -0.4, 2, 0.7}
	a, b := m.Forward(x), restored.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round-trip output mismatch: %v vs %v", a, b)
		}
	}
}

func TestMLPUnmarshalRejectsMalformed(t *testing.T) {
	var m MLP
	cases := []string{
		`{`,
		`{"sizes":[4],"weights":[],"biases":[]}`,
		`{"sizes":[2,3],"weights":[[1,2,3]],"biases":[[0,0,0]]}`, // wrong weight shape
		`{"sizes":[2,3],"weights":[[1,2,3,4,5,6]],"biases":[[0]]}`,
		`{"sizes":[2,3],"weights":[],"biases":[]}`,
	}
	for _, c := range cases {
		if err := json.Unmarshal([]byte(c), &m); err == nil {
			t.Errorf("malformed %q accepted", c)
		}
	}
}

func TestSaveLoadPolicy(t *testing.T) {
	d, err := NewDDQN(3, 2, DefaultDDQNConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := d.Policy()
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := SavePolicy(p, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPolicy(path)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 0, -1}
	if loaded.Act(x) != p.Act(x) {
		t.Error("loaded policy disagrees with original")
	}
	qa, qb := p.Q(nil, x), loaded.Q(nil, x)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("Q mismatch: %v vs %v", qa, qb)
		}
	}
}

func TestLoadPolicyMissingFile(t *testing.T) {
	if _, err := LoadPolicy(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file accepted")
	}
}
