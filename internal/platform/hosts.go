package platform

import "fmt"

// This file enumerates a platform description's hosts without
// instantiating it: the sweep engine derives deployments from the list, and
// the daemon's platform cache keeps it next to each built description.

// Hosts returns every host name declared by the platform in declaration
// order: for each AS, cluster hosts (expanded from the radical) first, then
// explicit hosts, then the hosts of nested systems.
func (p *Platform) Hosts() ([]string, error) {
	var hosts []string
	if err := walkHosts(&p.AS, func(name string) { hosts = append(hosts, name) }); err != nil {
		return nil, err
	}
	return hosts, nil
}

func walkHosts(a *AS, visit func(string)) error {
	for i := range a.Clusters {
		names, err := clusterHostNames(&a.Clusters[i])
		if err != nil {
			return err
		}
		for _, n := range names {
			visit(n)
		}
	}
	for _, h := range a.Hosts {
		visit(h.ID)
	}
	for i := range a.Subs {
		if err := walkHosts(&a.Subs[i], visit); err != nil {
			return err
		}
	}
	return nil
}

// clusterHostNames expands a cluster's radical into its host names, the same
// naming buildCluster applies when instantiating.
func clusterHostNames(c *Cluster) ([]string, error) {
	idx, err := ParseRadical(c.Radical)
	if err != nil {
		return nil, fmt.Errorf("platform: cluster %q: %w", c.ID, err)
	}
	names := make([]string, len(idx))
	for i, n := range idx {
		names[i] = fmt.Sprintf("%s%d%s", c.Prefix, n, c.Suffix)
	}
	return names, nil
}
