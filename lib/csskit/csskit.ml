include Kit
module Zoo = Zoo
module Memory = Memory
