package hotalloc

// suppressed shows a justified exception: the directive must name the
// analyzer and carry a reason, and it silences the line below.
func suppressed(grid [][]int) {
	for _, row := range grid {
		for range row {
			//lint:ignore hotalloc amortized growth accepted here; measured by perfbench's allocs_per_op
			tmp := make([]int, 8)
			_ = tmp
		}
	}
}
