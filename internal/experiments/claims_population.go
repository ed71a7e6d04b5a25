package experiments

// populationClaims exercise the population-scale generative workload layer
// end to end: the population-100k builtin scenario replaces the incoming
// trace with a generated 100k-user, 25k-job campaign cell, so evaluating
// the claim walks the full path — streaming cohort generation, the dense
// per-user fairshare/SLO hot paths at population scale, and the metric
// plane. Registered alongside the paper claims (cmd/hypotheses runs them)
// but NOT part of paperClaims — the paper's case study is a ~640-user
// trace; these pin the test-bed's million-user ambition into CI. Tier 3: a
// flipped seed reports but never gates.
var populationClaims = []claim{
	{
		// The 100k-user population is underloaded at the default 1000-node
		// system (util ~30%), so arrivals are compressed 3x to develop real
		// queues; margins are then wide on every seed (bsld ~2-5x vs ~6-32x).
		"claim population-backfill-bsld: " +
			"easy@pop=users:100k,jobs:25k+load=3#avg_bsld <= fcfs@pop=users:100k,jobs:25k+load=3#avg_bsld" +
			" tier 3 seeds 42..44",
		"On a generated 100k-user population with arrivals compressed 3x, EASY backfill keeps average bounded slowdown at or below plain FCFS",
	},
}
