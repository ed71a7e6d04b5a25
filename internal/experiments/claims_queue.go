package experiments

// queueClaims are demonstration claims over the per-queue metric plane
// (metrics keys "queue.<path>.<field>"): the scenario's queue= transform
// routes users into queue-tree leaves, the slo= transform gives every user
// the same wait target, and the claim compares attainment between the
// leaves. They are registered alongside the paper claims (cmd/hypotheses
// runs them) but are NOT part of paperClaims — the paper has no queue
// tree; these exercise the partition/queue subsystem end to end.
var queueClaims = []claim{
	{
		// Holds unanimously over seeds 42–51 at full scale (light ≈ 36–41%
		// vs heavy ≈ 34–38%); at reduced scales the load is too light for
		// waits to develop and the margin closes, so reduced-scale smoke
		// runs may flip individual seeds (as with the other scale-fragile
		// claims, the CI determinism smoke tolerates the gate).
		"claim queue-fairshare-favors-light: " +
			"cplant24.nomax.all@load=1.5+slo=default:30m+queue=p50:light,default:heavy#queue.light.attain_pct" +
			" >= cplant24.nomax.all@load=1.5+slo=default:30m+queue=p50:light,default:heavy#queue.heavy.attain_pct" +
			" seeds 42..51",
		"With arrivals compressed 1.5x and one 30m wait target for everyone, the lightest half of the users (queue \"light\") attain at least the heavy half's rate under fairshare ordering",
	},
}
