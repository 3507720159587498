package itemset

import (
	"fmt"
	"sort"
)

// Rule is an association rule X ⇒ Y (X, Y disjoint, non-empty): customers
// buying X also buy Y. The DEMON paper's motivating scenarios consume
// frequent itemsets in this form ("the set of frequent itemsets discovered
// from the database is used by an analyst to devise marketing strategies").
type Rule struct {
	Antecedent Itemset
	Consequent Itemset
	// Support is the fraction of transactions containing X ∪ Y.
	Support float64
	// Confidence is σ(X ∪ Y) / σ(X).
	Confidence float64
	// Lift is Confidence / σ(Y); values above 1 indicate positive
	// correlation.
	Lift float64
}

// String renders "X => Y (sup 0.10, conf 0.80, lift 1.3)".
func (r Rule) String() string {
	return fmt.Sprintf("%v => %v (sup %.3f, conf %.3f, lift %.2f)",
		r.Antecedent, r.Consequent, r.Support, r.Confidence, r.Lift)
}

// maxRuleItemset bounds subset enumeration; frequent itemsets beyond this
// size are skipped (2^20 subsets would be pathological anyway).
const maxRuleItemset = 20

// Rules derives all association rules meeting the confidence threshold from
// the lattice's frequent itemsets (the rule-generation step of AMS+96). The
// supports of all antecedents are available in the lattice by downward
// closure, so no data access is needed. Rules are returned in deterministic
// order: by descending confidence, then descending support, then
// antecedent/consequent keys.
func Rules(l *Lattice, minConf float64) ([]Rule, error) {
	return RulesOver(l.N, func(emit func(Itemset, int)) {
		for k, c := range l.Frequent {
			emit(k.Itemset(), c)
		}
	}, func(x Itemset) int { return l.Frequent[x.Key()] }, minConf)
}

// RulesOver is Rules over any holder of a frequent family counted over n
// transactions: each emits every frequent itemset with its count, in any
// order and overwriting the set at will; count returns the count of a
// frequent itemset and 0 for every other set.
func RulesOver(n int, each func(emit func(z Itemset, count int)), count func(Itemset) int, minConf float64) ([]Rule, error) {
	if !(minConf > 0 && minConf <= 1) {
		return nil, fmt.Errorf("itemset: minimum confidence %v outside (0, 1]", minConf)
	}
	if n == 0 {
		return nil, nil
	}
	var out []Rule
	var err error
	each(func(z Itemset, zCount int) {
		if len(z) < 2 || err != nil {
			return
		}
		if len(z) > maxRuleItemset {
			err = fmt.Errorf("itemset: frequent itemset %v too large for rule enumeration", z)
			return
		}
		support := float64(zCount) / float64(n)
		// Enumerate non-empty proper subsets of z as antecedents.
		for mask := 1; mask < (1<<len(z))-1; mask++ {
			ante := make(Itemset, 0, len(z))
			cons := make(Itemset, 0, len(z))
			for i, it := range z {
				if mask&(1<<i) != 0 {
					ante = append(ante, it)
				} else {
					cons = append(cons, it)
				}
			}
			aCount, cCount := count(ante), count(cons)
			if aCount == 0 || cCount == 0 {
				// Downward closure guarantees presence; a miss means the
				// family is inconsistent.
				err = fmt.Errorf("itemset: frequent %v has a subset among %v, %v that is not", z.Clone(), ante, cons)
				return
			}
			conf := float64(zCount) / float64(aCount)
			if conf < minConf {
				continue
			}
			out = append(out, Rule{
				Antecedent: ante,
				Consequent: cons,
				Support:    support,
				Confidence: conf,
				Lift:       conf / (float64(cCount) / float64(n)),
			})
		}
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Confidence != b.Confidence {
			return a.Confidence > b.Confidence
		}
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		if ka, kb := a.Antecedent.Key(), b.Antecedent.Key(); ka != kb {
			return ka < kb
		}
		return a.Consequent.Key() < b.Consequent.Key()
	})
	return out, nil
}
