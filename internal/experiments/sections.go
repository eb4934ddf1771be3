package experiments

import "io"

// Section is one section of the evaluation report: a table or figure of the
// paper, or an extension sweep. Name is the harness's name and the
// experiments.<Name>_s key the benchmark times the section under; Title is
// its cmd/report heading; Key selects it with covertbench -fig, and is empty
// for the sections covertbench does not run. Run regenerates the section at
// sc, renders it to w and returns the harness's structured result.
// HostMeasured marks a section whose output holds wall-clock measurements of
// the host, so two runs of it differ in those parts.
type Section struct {
	Name, Title, Key string
	Run              func(sc Scale, w io.Writer) (any, error)
	HostMeasured     bool
}

// Sections is every section of the evaluation report, in report order. A
// new section is one row here: cmd/report renders every row, cmd/covertbench
// runs the rows with a Key, and the parallel-determinism test covers them
// all.
var Sections = []Section{
	{"Fig04", "Fig. 4 — covert-channel feasibility", "4", erase(Fig04), false},
	{"Fig06", "Fig. 6 — schedule traces", "", erase(Fig06), false},
	{"Fig12", "Fig. 12 — mitigation grid", "12", erase(Fig12), false},
	{"Fig13", "Fig. 13 — execution vectors under TimeDice", "13", erase(Fig13), false},
	{"Fig14", "Fig. 14 — response-time distributions", "14", erase(Fig14), false},
	{"Fig15", "Fig. 15 — channel capacity", "15", erase(Fig15), false},
	{"Fig16", "Fig. 16 — task response times", "", erase(Fig16), false},
	{"Table02", "Table II — WCRTs", "", erase(Table02), false},
	{"Table03", "Table III — car responsiveness", "", erase(Table03), false},
	{"Overhead", "Tables IV–V / Fig. 17 — overhead", "", erase(Overhead), true},
	{"Fig18", "Fig. 18 / §V-C — BLINDER comparison", "", erase(Fig18), false},
	{"CarChannel", "§III-e — car covert channel", "car", erase(CarChannel), false},
	{"Ablation", "Extension — ablations", "ablation", erase(Ablation), false},
	{"Rate", "Extension — signaling rate", "rate", erase(Rate), false},
	{"Naive", "Extension — unprincipled randomization", "", erase(Naive), false},
	{"Randomness", "Extension — schedule randomness", "", erase(Randomness), false},
	{"UtilizationSweep", "Extension — utilization sweep", "", erase(UtilizationSweep), false},
	{"MultiPairReport", "Extension — concurrent pairs", "multipair", erase(MultiPairReport), false},
	{"ReceiverZoo", "Extension — receiver zoo", "receivers", erase(ReceiverZoo), false},
	{"Detection", "Extension — sender detection", "detect", erase(Detection), false},
	{"Campaign", "Extension — cross-seed campaign", "campaign", erase(Campaign), false},
}

// erase adapts a harness to Section.Run, hiding its result type.
func erase[R any](fn func(Scale, io.Writer) (R, error)) func(Scale, io.Writer) (any, error) {
	return func(sc Scale, w io.Writer) (any, error) { return fn(sc, w) }
}
