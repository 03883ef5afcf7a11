package cc

// Names lists the available algorithms in the order the paper's Figure 1
// uses them, plus the extras (DCTCP, TIMELY).
func Names() []string {
	return []string{"illinois", "cubic", "reno", "vegas", "highspeed", "dctcp", "timely"}
}
