package sw

// badParallel reduces floats in scheduler order: the captured write is
// exactly what sharedwrite objects to.
func badParallel(vs []float64) float64 {
	sum := 0.0
	done := make(chan struct{}, len(vs))
	for _, v := range vs {
		v := v
		go func() {
			sum += v // want `goroutine writes captured variable sum`
			done <- struct{}{}
		}()
	}
	for range vs {
		<-done
	}
	return sum
}

// goodPartials index-slots per-goroutine partial sums and reduces after
// the join, in index order.
func goodPartials(vs []float64) float64 {
	parts := make([]float64, len(vs))
	done := make(chan struct{}, len(vs))
	for i, v := range vs {
		i, v := i, v
		go func() {
			parts[i] = v
			done <- struct{}{}
		}()
	}
	for range vs {
		<-done
	}
	total := 0.0
	for _, p := range parts {
		total += p
	}
	return total
}
