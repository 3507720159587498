package itemset

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestRulesHandChecked(t *testing.T) {
	// 10 transactions: {1,2} in 6, {1} alone in 2, {2} alone in 2.
	txs := make([]Transaction, 0, 10)
	for i := 0; i < 6; i++ {
		txs = append(txs, Transaction{TID: i, Items: NewItemset(1, 2)})
	}
	for i := 6; i < 8; i++ {
		txs = append(txs, Transaction{TID: i, Items: NewItemset(1)})
	}
	for i := 8; i < 10; i++ {
		txs = append(txs, Transaction{TID: i, Items: NewItemset(2)})
	}
	l, err := Apriori(SliceSource(txs), nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := Rules(l, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// σ({1}) = σ({2}) = 0.8, σ({1,2}) = 0.6. Both directions have
	// confidence 0.75 and lift 0.75/0.8 = 0.9375.
	if len(rules) != 2 {
		t.Fatalf("rules = %v", rules)
	}
	for _, r := range rules {
		if math.Abs(r.Confidence-0.75) > 1e-12 {
			t.Errorf("confidence = %v, want 0.75", r.Confidence)
		}
		if math.Abs(r.Support-0.6) > 1e-12 {
			t.Errorf("support = %v, want 0.6", r.Support)
		}
		if math.Abs(r.Lift-0.9375) > 1e-12 {
			t.Errorf("lift = %v, want 0.9375", r.Lift)
		}
	}
	// At confidence 0.8 no rule survives.
	rules, err = Rules(l, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 0 {
		t.Fatalf("rules at 0.8 = %v", rules)
	}
}

func TestRulesThreeItemset(t *testing.T) {
	// All transactions contain {1,2,3}: every rule has confidence 1.
	txs := make([]Transaction, 5)
	for i := range txs {
		txs[i] = Transaction{TID: i, Items: NewItemset(1, 2, 3)}
	}
	l, err := Apriori(SliceSource(txs), nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := Rules(l, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// From {1,2}: 2 rules; from {1,3}: 2; from {2,3}: 2; from {1,2,3}:
	// 2^3-2 = 6. Total 12.
	if len(rules) != 12 {
		t.Fatalf("got %d rules, want 12", len(rules))
	}
	for _, r := range rules {
		if r.Confidence != 1 {
			t.Fatalf("rule %v confidence %v", r, r.Confidence)
		}
		if len(r.Antecedent) == 0 || len(r.Consequent) == 0 {
			t.Fatalf("degenerate rule %v", r)
		}
	}
}

// TestRulesConfidenceMatchesNaive cross-checks rule metrics against direct
// counting on random data.
func TestRulesConfidenceMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	txs := randomTxs(rng, 150, 8, 4)
	l, err := Apriori(SliceSource(txs), nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := Rules(l, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	count := func(x Itemset) int {
		c := 0
		for _, tx := range txs {
			if tx.Contains(x) {
				c++
			}
		}
		return c
	}
	for _, r := range rules {
		union := r.Antecedent.Union(r.Consequent)
		wantSup := float64(count(union)) / float64(len(txs))
		wantConf := float64(count(union)) / float64(count(r.Antecedent))
		if math.Abs(r.Support-wantSup) > 1e-12 || math.Abs(r.Confidence-wantConf) > 1e-12 {
			t.Fatalf("rule %v metrics diverge: want sup %v conf %v", r, wantSup, wantConf)
		}
		if r.Confidence < 0.4 {
			t.Fatalf("rule %v below threshold", r)
		}
	}
}

func TestRulesSortedByConfidence(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	txs := randomTxs(rng, 200, 10, 4)
	l, err := Apriori(SliceSource(txs), nil, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := Rules(l, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rules); i++ {
		if rules[i].Confidence > rules[i-1].Confidence {
			t.Fatalf("rules not sorted at %d", i)
		}
	}
}

func TestRulesValidation(t *testing.T) {
	l := NewLattice(0.1)
	if _, err := Rules(l, 0); err == nil {
		t.Error("accepted minConf 0")
	}
	if _, err := Rules(l, 1.5); err == nil {
		t.Error("accepted minConf > 1")
	}
	if _, err := Rules(l, math.NaN()); err == nil {
		t.Error("accepted minConf NaN")
	}
	rules, err := Rules(l, 0.5)
	if err != nil || rules != nil {
		t.Errorf("empty lattice: %v, %v", rules, err)
	}
	// Inconsistent lattice (missing subset) must be detected.
	l.N = 10
	l.Frequent[NewItemset(1, 2).Key()] = 5
	if _, err := Rules(l, 0.5); err == nil {
		t.Error("accepted lattice with missing subsets")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Antecedent: NewItemset(1),
		Consequent: NewItemset(2),
		Support:    0.5, Confidence: 0.8, Lift: 1.25,
	}
	s := r.String()
	if !strings.Contains(s, "=>") || !strings.Contains(s, "0.800") {
		t.Fatalf("String = %q", s)
	}
}
