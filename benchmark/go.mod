module soapbinq/benchmark

go 1.22

require soapbinq v0.0.0

replace soapbinq => ../
