package society

// asMaps spreads a model's pairs into the three maps it once exported,
// so a test compares them with a brute-force oracle's in one line.
func asMaps(m *Model) (prob map[Pair]float64, encounters, coLeaves map[Pair]int) {
	prob, encounters, coLeaves = map[Pair]float64{}, map[Pair]int{}, map[Pair]int{}
	m.EachPair(func(p PairStat) {
		if p.Supported {
			prob[p.Pair] = p.Prob
		}
		if p.Encounters > 0 {
			encounters[p.Pair] = p.Encounters
		}
		if p.CoLeaves > 0 {
			coLeaves[p.Pair] = p.CoLeaves
		}
	})
	return prob, encounters, coLeaves
}

// AsMaps is asMaps for the package's black-box tests.
var AsMaps = asMaps
